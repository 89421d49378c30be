"""Recursive-descent parser for the supported SQL subset.

Grammar sketch (standard precedence; left-associative binaries)::

    statement := EXPLAIN [ANALYZE] query | query | ddl
    query     := select (UNION ALL select)*
    select    := SELECT [DISTINCT] items [FROM from] [WHERE expr]
                 [GROUP BY exprs] [HAVING expr] [ORDER BY order]
                 [LIMIT n] [OFFSET n] [;]
    from      := table_ref ( [INNER|LEFT [OUTER]] JOIN table_ref ON expr )*
    expr      := or_expr
    or_expr   := and_expr (OR and_expr)*
    and_expr  := not_expr (AND not_expr)*
    not_expr  := NOT not_expr | predicate
    predicate := additive ( comparison | BETWEEN | IN | LIKE | IS NULL )?
    additive  := multiplicative ((+|-|'||') multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary     := - unary | primary
    primary   := literal | DATE 'lit' | CASE | CAST | function(...)
               | column | ( expr ) | *
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.engine.sql import ast
from repro.engine.sql.lexer import Lexer, Token, TokenType

AGGREGATE_KEYWORD_FUNCTIONS = {"count", "sum", "avg", "min", "max"}

COMPARISON_OPERATORS = {"=", "<>", "!=", "<", "<=", ">", ">="}


def parse_sql(
    sql: str,
) -> "ast.SelectStatement | ast.UnionAll | ast.CreateTable | ast.DropTable | ast.Explain":
    """Parse one statement; raises :class:`ParseError` on bad input."""
    return Parser(sql).parse()


def number_value(text: str) -> int | float:
    """The value of a NUMBER token's text: a float when it has a point or
    an exponent, else an int.  Raises ``ValueError`` for a text that is a
    number token but not a number (``1e+``, ``²``)."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _hoist_union_tail(union: ast.UnionAll) -> ast.UnionAll:
    """Move a trailing ORDER BY/LIMIT/OFFSET from the last branch onto the
    union itself — standard SQL scopes them to the whole union."""
    import dataclasses

    last = union.branches[-1]
    if not (last.order_by or last.limit is not None or last.offset is not None):
        return union
    stripped = dataclasses.replace(
        last, order_by=(), limit=None, offset=None
    )
    return ast.UnionAll(
        branches=union.branches[:-1] + (stripped,),
        order_by=last.order_by,
        limit=last.limit,
        offset=last.offset,
    )


class Parser:
    """One-statement recursive-descent parser over the lexer's tokens."""

    def __init__(self, sql: str) -> None:
        self._tokens = Lexer(sql).tokenize()
        self._index = 0

    # -- token helpers -------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._current
        where = f" near {token.text!r}" if token.text else " at end of input"
        return ParseError(f"{message}{where}", token.position)

    def _expect_keyword(self, name: str) -> Token:
        if not self._current.is_keyword(name):
            raise self._error(f"expected {name.upper()}")
        return self._advance()

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect(self, token_type: TokenType) -> Token:
        if self._current.type is not token_type:
            raise self._error(f"expected {token_type.value}")
        return self._advance()

    # -- statement -------------------------------------------------------------

    def parse(
        self,
    ) -> "ast.SelectStatement | ast.UnionAll | ast.CreateTable | ast.DropTable | ast.Explain":
        first = self._current
        if first.type is TokenType.IDENTIFIER and first.lower in ("create", "drop"):
            statement = self._parse_ddl()
            if self._current.type is TokenType.SEMICOLON:
                self._advance()
            if self._current.type is not TokenType.EOF:
                raise self._error("unexpected trailing input")
            return statement
        if first.type is TokenType.IDENTIFIER and first.lower == "explain":
            self._advance()
            # ``analyze`` lexes as an identifier (like ``explain``): it is
            # deliberately not a reserved keyword, so columns may use it.
            analyze = (
                self._current.type is TokenType.IDENTIFIER
                and self._current.lower == "analyze"
            )
            if analyze:
                self._advance()
            inner = self._parse_query()
            return ast.Explain(statement=inner, analyze=analyze)
        return self._parse_query()

    def _parse_query(self) -> "ast.SelectStatement | ast.UnionAll":
        """SELECT (or UNION ALL chain) up to end of input."""
        statement: ast.SelectStatement | ast.UnionAll = self._parse_select()
        while self._current.is_keyword("union"):
            self._advance()
            self._expect_keyword("all")
            right = self._parse_select()
            statement = ast.UnionAll(
                branches=(
                    statement.branches if isinstance(statement, ast.UnionAll)
                    else (statement,)
                ) + (right,)
            )
        if isinstance(statement, ast.UnionAll):
            statement = _hoist_union_tail(statement)
        if self._current.type is TokenType.SEMICOLON:
            self._advance()
        if self._current.type is not TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    def _parse_ddl(self) -> "ast.CreateTable | ast.DropTable":
        verb = self._advance().lower
        table_token = self._advance()
        if table_token.lower != "table":
            raise ParseError(
                f"expected TABLE after {verb.upper()}", table_token.position
            )
        name = self._expect(TokenType.IDENTIFIER).text
        if verb == "drop":
            return ast.DropTable(name)
        self._expect(TokenType.LPAREN)
        columns: list[tuple[str, str]] = []
        while True:
            column = self._expect(TokenType.IDENTIFIER).text
            type_token = self._advance()
            if type_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                raise ParseError(
                    "expected a type name", type_token.position
                )
            columns.append((column, type_token.text))
            if self._current.type is TokenType.COMMA:
                self._advance()
                continue
            break
        self._expect(TokenType.RPAREN)
        if not columns:
            raise self._error("CREATE TABLE needs at least one column")
        return ast.CreateTable(name, tuple(columns))

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._parse_select_items()
        from_clause = None
        if self._accept_keyword("from"):
            from_clause = self._parse_from()
        where = self._parse_expr() if self._accept_keyword("where") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = tuple(self._parse_expr_list())
        having = self._parse_expr() if self._accept_keyword("having") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = tuple(self._parse_order_items())
        limit = offset = None
        if self._accept_keyword("limit"):
            limit = self._parse_nonnegative_int("LIMIT")
        if self._accept_keyword("offset"):
            offset = self._parse_nonnegative_int("OFFSET")
        return ast.SelectStatement(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_nonnegative_int(self, clause: str) -> int:
        token = self._expect(TokenType.NUMBER)
        try:
            value = int(token.text)
        except ValueError:
            raise ParseError(f"{clause} must be an integer", token.position) from None
        return value

    def _parse_select_items(self) -> list[ast.SelectItem]:
        items = [self._parse_select_item()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect(TokenType.IDENTIFIER).text
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _parse_from(self) -> ast.TableRef | ast.Join:
        node: ast.TableRef | ast.Join = self._parse_table_ref()
        while True:
            kind = None
            if self._accept_keyword("join"):
                kind = ast.JoinKind.INNER
            elif self._current.is_keyword("inner"):
                self._advance()
                self._expect_keyword("join")
                kind = ast.JoinKind.INNER
            elif self._current.is_keyword("left"):
                self._advance()
                self._accept_keyword("outer")
                self._expect_keyword("join")
                kind = ast.JoinKind.LEFT
            elif self._current.type is TokenType.COMMA:
                # Comma join: FROM a, b WHERE ... (condition checked later by
                # the binder; represented as INNER JOIN ON TRUE).
                self._advance()
                right = self._parse_table_ref()
                node = ast.Join(node, right, ast.JoinKind.INNER, ast.Literal(True))
                continue
            else:
                return node
            right = self._parse_table_ref()
            self._expect_keyword("on")
            condition = self._parse_expr()
            node = ast.Join(node, right, kind, condition)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect(TokenType.IDENTIFIER).text
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect(TokenType.IDENTIFIER).text
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().text
        return ast.TableRef(name, alias)

    def _parse_order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self._parse_expr()
            ascending = True
            if self._accept_keyword("desc"):
                ascending = False
            else:
                self._accept_keyword("asc")
            items.append(ast.OrderItem(expr, ascending))
            if self._current.type is not TokenType.COMMA:
                return items
            self._advance()

    def _parse_expr_list(self) -> list[ast.Expr]:
        exprs = [self._parse_expr()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            exprs.append(self._parse_expr())
        return exprs

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._current.is_keyword("or"):
            self._advance()
            left = ast.Binary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._current.is_keyword("and"):
            self._advance()
            left = ast.Binary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("not"):
            return ast.Unary("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._current
        if token.type is TokenType.OPERATOR and token.text in COMPARISON_OPERATORS:
            self._advance()
            op = "<>" if token.text == "!=" else token.text
            return ast.Binary(op, left, self._parse_additive())
        negated = False
        if token.is_keyword("not"):
            lookahead = self._tokens[self._index + 1]
            if lookahead.is_keyword("between", "in", "like"):
                self._advance()
                negated = True
                token = self._current
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect(TokenType.LPAREN)
            if self._current.is_keyword("select"):
                query = self._parse_select()
                self._expect(TokenType.RPAREN)
                return ast.InSubquery(left, query, negated)
            items = tuple(self._parse_expr_list())
            self._expect(TokenType.RPAREN)
            return ast.InList(left, items, negated)
        if token.is_keyword("like"):
            self._advance()
            return ast.Like(left, self._parse_additive(), negated)
        if token.is_keyword("is"):
            self._advance()
            is_negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return ast.IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._current
            if token.type is TokenType.OPERATOR and token.text in ("+", "-", "||"):
                self._advance()
                left = ast.Binary(token.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._current
            if token.type is TokenType.STAR or (
                token.type is TokenType.OPERATOR and token.text in ("/", "%")
            ):
                self._advance()
                op = "*" if token.type is TokenType.STAR else token.text
                left = ast.Binary(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        token = self._current
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            return ast.Unary("-", self._parse_unary())
        if token.type is TokenType.OPERATOR and token.text == "+":
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.type is TokenType.NUMBER:
            try:
                value = number_value(token.text)
            except ValueError:
                raise self._error("malformed number") from None
            self._advance()
            return ast.Literal(value, False, token.position)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.text, False, token.position)
        if token.is_keyword("null"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("true"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("false"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("date"):
            self._advance()
            literal = self._expect(TokenType.STRING)
            return ast.Literal(literal.text, True, literal.position)
        if token.is_keyword("interval"):
            return self._parse_interval()
        if token.is_keyword("case"):
            return self._parse_case()
        if token.type is TokenType.IDENTIFIER and token.lower == "extract":
            return self._parse_extract()
        if token.is_keyword("cast"):
            return self._parse_cast()
        if token.is_keyword(*AGGREGATE_KEYWORD_FUNCTIONS):
            self._advance()
            return self._parse_function_args(token.lower)
        if token.type is TokenType.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN)
            return expr
        if token.type is TokenType.STAR:
            self._advance()
            return ast.Star()
        if token.type is TokenType.IDENTIFIER:
            return self._parse_identifier_expr()
        raise self._error("expected an expression")

    def _parse_interval(self) -> ast.Expr:
        """INTERVAL '<n>' DAY|MONTH|YEAR → literal day count.

        Months/years use TPC-H's fixed-calendar convention (30/365 days),
        adequate for date-window predicates in the workloads.
        """
        self._expect_keyword("interval")
        quantity_token = self._expect(TokenType.STRING)
        try:
            quantity = int(quantity_token.text)
        except ValueError:
            raise ParseError(
                "INTERVAL quantity must be an integer string",
                quantity_token.position,
            ) from None
        unit = self._expect(TokenType.IDENTIFIER).text.lower()
        days_per_unit = {"day": 1, "days": 1, "month": 30, "months": 30,
                         "year": 365, "years": 365}
        if unit not in days_per_unit:
            raise self._error(f"unsupported INTERVAL unit {unit!r}")
        return ast.Literal(quantity * days_per_unit[unit])

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("case")
        operand: ast.Expr | None = None
        if not self._current.is_keyword("when"):
            # Simple CASE: `CASE x WHEN v THEN r ...` desugars to the
            # searched form `CASE WHEN x = v THEN r ...`.
            operand = self._parse_expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expr()
            if operand is not None:
                condition = ast.Binary("=", operand, condition)
            self._expect_keyword("then")
            result = self._parse_expr()
            whens.append((condition, result))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        else_ = self._parse_expr() if self._accept_keyword("else") else None
        self._expect_keyword("end")
        return ast.Case(tuple(whens), else_)

    def _parse_extract(self) -> ast.Expr:
        """EXTRACT(YEAR|MONTH FROM expr) — sugar for year()/month()."""
        self._advance()  # 'extract'
        if self._current.type is not TokenType.LPAREN:
            # Bare identifier named "extract": treat as a column.
            return ast.ColumnRef("extract")
        self._expect(TokenType.LPAREN)
        field_token = self._advance()
        field = field_token.text.lower()
        if field not in ("year", "month"):
            raise ParseError(
                f"EXTRACT supports YEAR and MONTH, not {field_token.text!r}",
                field_token.position,
            )
        self._expect_keyword("from")
        operand = self._parse_expr()
        self._expect(TokenType.RPAREN)
        return ast.FunctionCall(field, (operand,))

    def _parse_cast(self) -> ast.Expr:
        self._expect_keyword("cast")
        self._expect(TokenType.LPAREN)
        expr = self._parse_expr()
        self._expect_keyword("as")
        token = self._advance()
        if token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise self._error("expected a type name in CAST")
        self._expect(TokenType.RPAREN)
        return ast.Cast(expr, token.text)

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self._advance().text
        if self._current.type is TokenType.LPAREN:
            return self._parse_function_args(name.lower())
        if self._current.type is TokenType.DOT:
            self._advance()
            if self._current.type is TokenType.STAR:
                self._advance()
                return ast.Star(table=name)
            column = self._expect(TokenType.IDENTIFIER).text
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _parse_function_args(self, name: str) -> ast.Expr:
        self._expect(TokenType.LPAREN)
        distinct = self._accept_keyword("distinct")
        args: tuple[ast.Expr, ...]
        if self._current.type is TokenType.RPAREN:
            args = ()
        else:
            args = tuple(self._parse_expr_list())
        self._expect(TokenType.RPAREN)
        return ast.FunctionCall(name, args, distinct)
