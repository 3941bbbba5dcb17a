"""Recursive-descent parser for MQL.

Grammar (EBNF)::

    input       := ["EXPLAIN"] (statement | insert | delete | modify)
                   | transaction | checkpoint
    transaction := ("BEGIN" | "COMMIT" | "ROLLBACK") ["WORK"] [";"]
    checkpoint  := "CHECKPOINT" [";"]
    statement   := query (("UNION" | "DIFFERENCE" | "INTERSECT") query)* [";"]
    query       := "SELECT" select_list "FROM" from_clause ["WHERE" condition]
                   ["GROUP" "BY" attr_ref ("," attr_ref)*]
    select_list := "ALL" | select_item ("," select_item)*
    select_item := aggregate | attr_ref
    aggregate   := ("COUNT" | "SUM" | "MIN" | "MAX" | "AVG")
                   "(" ("*" | attr_ref) ")"
    from_clause := recursive | [ident] "(" path ")" | path
    recursive   := "RECURSIVE" ident [bracket_name] ["DOWN" | "UP"] [number]
    path        := node ("-" [bracket_name "-"] node)*
    node        := ident | "(" path ("," path)* ")"
    insert      := "INSERT" from_clause "VALUES" object [";"]
    delete      := "DELETE" ["CASCADE"] [ident] "FROM" from_clause
                   ["WHERE" condition] [";"]
    modify      := "MODIFY" ident "FROM" from_clause
                   "SET" assignment ("," assignment)* ["WHERE" condition] [";"]
    assignment  := attr_ref "=" literal
    object      := "{" [pair ("," pair)*] "}"
    pair        := ident ":" (literal | object | "(" object ("," object)* ")")
    condition   := or_expr
    or_expr     := and_expr ("OR" and_expr)*
    and_expr    := not_expr ("AND" not_expr)*
    not_expr    := "NOT" not_expr | primary
    primary     := "(" condition ")" | comparison
    comparison  := attr_ref op (literal | attr_ref)
    attr_ref    := ident ["." ident]
    literal     := ["-"] number | string | "TRUE" | "FALSE"

The ambiguity between a parenthesized *structure branch group* and the
parenthesized *structure of a named molecule type* is resolved by look-ahead:
``ident "("`` directly after FROM is a named molecule-type definition when the
identifier is not followed by a dash.

**Templates.**  A *value position* is where a ``literal`` is a value of the
statement rather than part of its shape: the right-hand side of a
comparison, a ``SET`` value, an object value of ``INSERT`` (``_id``
included) — lexically, a STRING or NUMBER token right after an operator or
a ``:``, or after a ``-`` that follows one.  :func:`template` splits a token
stream into the hashable key of its *template* (every token but those
literals, which are reduced to their token type) and the literals in order;
:func:`parse_template` parses the template into an AST whose value
positions hold :class:`~repro.mql.ast_nodes.Slot` placeholders.  Two
statements with one key therefore differ in nothing but their values.  A
number that is not in a value position (``RECURSIVE part DOWN 3``) stays in
the key: it shapes the plan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.exceptions import MQLSyntaxError
from repro.mql.ast_nodes import (
    AggregateItem,
    Assignment,
    AttributeReference,
    CheckpointStatement,
    ComparisonCondition,
    DeleteStatement,
    DMLStatement,
    ExplainStatement,
    FromClause,
    InsertStatement,
    LogicalCondition,
    ModifyStatement,
    NotCondition,
    Query,
    RecursiveStructure,
    SetOperation,
    Slot,
    Statement,
    StructureBranch,
    StructureNode,
    StructurePath,
    TransactionStatement,
)
from repro.mql.lexer import Token, TokenType, tokenize


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.position = 0

    # ------------------------------------------------------------- utilities

    def peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def expect(self, token_type: TokenType, value: Optional[object] = None) -> Token:
        token = self.peek()
        if token.type is not token_type or (value is not None and token.value != value):
            expected = value if value is not None else token_type.value
            raise MQLSyntaxError(
                f"expected {expected!r}, found {token.value!r}", token.line, token.column
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    # ------------------------------------------------------------- statement

    def parse_input(self) -> "Statement | DMLStatement | ExplainStatement":
        if self.accept_keyword("EXPLAIN"):
            return ExplainStatement(self.parse_any_statement())
        return self.parse_any_statement()

    def parse_any_statement(self) -> "Statement | DMLStatement | TransactionStatement":
        token = self.peek()
        if token.is_keyword("INSERT"):
            return self.parse_insert()
        if token.is_keyword("DELETE"):
            return self.parse_delete()
        if token.is_keyword("MODIFY"):
            return self.parse_modify()
        if token.type is TokenType.KEYWORD and token.value in ("BEGIN", "COMMIT", "ROLLBACK"):
            return self.parse_transaction()
        if token.is_keyword("CHECKPOINT"):
            self.advance()
            self._finish()
            return CheckpointStatement()
        return self.parse_statement()

    def parse_transaction(self) -> TransactionStatement:
        action = str(self.advance().value)
        self.accept_keyword("WORK")
        self._finish()
        return TransactionStatement(action)

    def parse_statement(self) -> Statement:
        left: Statement = self.parse_query()
        while self.peek().type is TokenType.KEYWORD and self.peek().value in (
            "UNION",
            "DIFFERENCE",
            "INTERSECT",
        ):
            operator = self.advance().value
            right = self.parse_query()
            left = SetOperation(str(operator), left, right)
        self._finish()
        return left

    def _finish(self) -> None:
        """Consume an optional trailing semicolon and require end of input."""
        if self.peek().type is TokenType.SEMICOLON:
            self.advance()
        token = self.peek()
        if token.type is not TokenType.EOF:
            raise MQLSyntaxError(
                f"unexpected trailing input {token.value!r}", token.line, token.column
            )

    _AGGREGATE_FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG")

    def parse_query(self) -> Query:
        self.expect(TokenType.KEYWORD, "SELECT")
        select_all = False
        projection: Tuple[str, ...] = ()
        aggregates: Tuple[AggregateItem, ...] = ()
        select_refs: Tuple[AttributeReference, ...] = ()
        if self.accept_keyword("ALL"):
            select_all = True
        else:
            items: List[Union[AggregateItem, AttributeReference]] = [
                self.parse_select_item()
            ]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                items.append(self.parse_select_item())
            if any(isinstance(item, AggregateItem) for item in items):
                aggregates = tuple(i for i in items if isinstance(i, AggregateItem))
                select_refs = tuple(
                    i for i in items if isinstance(i, AttributeReference)
                )
            else:
                for item in items:
                    if isinstance(item, AttributeReference) and item.atom_type:
                        raise MQLSyntaxError(
                            "dotted attribute references in the SELECT list "
                            "require aggregation (GROUP BY)",
                            self.peek().line,
                            self.peek().column,
                        )
                projection = tuple(str(item.attribute) for item in items)  # type: ignore[union-attr]
        self.expect(TokenType.KEYWORD, "FROM")
        from_clause = self.parse_from_clause()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        group_by: Tuple[AttributeReference, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect(TokenType.KEYWORD, "BY")
            keys = [self.parse_attribute_reference()]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                keys.append(self.parse_attribute_reference())
            group_by = tuple(keys)
        return Query(
            select_all, projection, from_clause, where, aggregates, group_by, select_refs
        )

    def parse_select_item(self) -> "AggregateItem | AttributeReference":
        token = self.peek()
        if (
            token.type is TokenType.IDENT
            and str(token.value).upper() in self._AGGREGATE_FUNCS
            and self.peek(1).type is TokenType.LPAREN
        ):
            func = str(self.advance().value).upper()
            self.expect(TokenType.LPAREN)
            if self.peek().type is TokenType.STAR:
                star_token = self.advance()
                if func != "COUNT":
                    raise MQLSyntaxError(
                        f"'*' is only valid in COUNT(*), not {func}(*)",
                        star_token.line,
                        star_token.column,
                    )
                self.expect(TokenType.RPAREN)
                return AggregateItem(func, None, star=True)
            distinct = False
            if self.peek().type is TokenType.KEYWORD and str(self.peek().value) == "DISTINCT":
                distinct_token = self.advance()
                if func != "COUNT":
                    raise MQLSyntaxError(
                        f"DISTINCT is only valid in COUNT(DISTINCT …), not {func}",
                        distinct_token.line,
                        distinct_token.column,
                    )
                distinct = True
            argument = self.parse_attribute_reference()
            self.expect(TokenType.RPAREN)
            return AggregateItem(func, argument, distinct=distinct)
        return self.parse_attribute_reference()

    # ------------------------------------------------------------------- DML

    def parse_insert(self) -> InsertStatement:
        self.expect(TokenType.KEYWORD, "INSERT")
        from_clause = self.parse_from_clause()
        self.expect(TokenType.KEYWORD, "VALUES")
        data = self.parse_object()
        self._finish()
        return InsertStatement(from_clause, data)

    def parse_delete(self) -> DeleteStatement:
        self.expect(TokenType.KEYWORD, "DELETE")
        cascade = self.accept_keyword("CASCADE")
        molecule_name: Optional[str] = None
        if self.peek().type is TokenType.IDENT and self.peek(1).is_keyword("FROM"):
            molecule_name = str(self.advance().value)
        self.expect(TokenType.KEYWORD, "FROM")
        from_clause = self.parse_from_clause()
        if molecule_name is not None and from_clause.molecule_name is None:
            from_clause = FromClause(from_clause.structure, molecule_name)
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        self._finish()
        return DeleteStatement(from_clause, where, cascade)

    def parse_modify(self) -> ModifyStatement:
        self.expect(TokenType.KEYWORD, "MODIFY")
        target = str(self.expect(TokenType.IDENT).value)
        self.expect(TokenType.KEYWORD, "FROM")
        from_clause = self.parse_from_clause()
        self.expect(TokenType.KEYWORD, "SET")
        assignments = [self.parse_assignment()]
        while self.peek().type is TokenType.COMMA:
            self.advance()
            assignments.append(self.parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        self._finish()
        return ModifyStatement(target, from_clause, tuple(assignments), where)

    def parse_assignment(self) -> Assignment:
        lhs = self.parse_attribute_reference()
        operator = self.expect(TokenType.OPERATOR)
        if operator.value != "=":
            raise MQLSyntaxError(
                f"SET expects '=', found {operator.value!r}", operator.line, operator.column
            )
        return Assignment(lhs, self.parse_literal())

    # -------------------------------------------------------- object literals

    def parse_object(self) -> dict:
        """Parse ``{key: value, ...}`` into a plain nested dictionary."""
        self.expect(TokenType.LBRACE)
        data: dict = {}
        if self.peek().type is TokenType.RBRACE:
            self.advance()
            return data
        while True:
            key_token = self.peek()
            if key_token.type is TokenType.IDENT:
                key = str(self.advance().value)
            elif key_token.type is TokenType.KEYWORD:
                # Attribute names may collide with keywords (e.g. "set").
                key = str(self.advance().value).lower()
            else:
                raise MQLSyntaxError(
                    f"expected an attribute or atom-type name, found {key_token.value!r}",
                    key_token.line,
                    key_token.column,
                )
            self.expect(TokenType.COLON)
            data[key] = self.parse_object_value()
            if self.peek().type is TokenType.COMMA:
                self.advance()
                continue
            break
        self.expect(TokenType.RBRACE)
        return data

    def parse_object_value(self) -> object:
        token = self.peek()
        if token.type is TokenType.LBRACE:
            return self.parse_object()
        if token.type is TokenType.LPAREN:
            # A parenthesized list of child objects: (obj, obj, ...).
            self.advance()
            children = [self.parse_object()]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                children.append(self.parse_object())
            self.expect(TokenType.RPAREN)
            return children
        return self.parse_literal()

    def parse_literal(self) -> object:
        token = self.peek()
        if token.type is TokenType.DASH:
            self.advance()
            number = self.expect(TokenType.NUMBER)
            return -number.value  # type: ignore[operator]
        if token.type in (TokenType.STRING, TokenType.NUMBER):
            return self.advance().value
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        raise MQLSyntaxError(
            f"expected a literal, found {token.value!r}", token.line, token.column
        )

    # ----------------------------------------------------------- FROM clause

    def parse_from_clause(self) -> FromClause:
        if self.peek().is_keyword("RECURSIVE"):
            return FromClause(self.parse_recursive())
        molecule_name: Optional[str] = None
        if (
            self.peek().type is TokenType.IDENT
            and self.peek(1).type is TokenType.LPAREN
        ):
            # "name ( path )" — a named molecule-type definition.
            molecule_name = str(self.advance().value)
            self.expect(TokenType.LPAREN)
            path = self.parse_path()
            self.expect(TokenType.RPAREN)
            return FromClause(path, molecule_name)
        return FromClause(self.parse_path())

    def parse_recursive(self) -> RecursiveStructure:
        self.expect(TokenType.KEYWORD, "RECURSIVE")
        atom_type = str(self.expect(TokenType.IDENT).value)
        link_name: Optional[str] = None
        if self.peek().type is TokenType.BRACKET_NAME:
            link_name = str(self.advance().value)
        direction = "down"
        if self.accept_keyword("DOWN"):
            direction = "down"
        elif self.accept_keyword("UP"):
            direction = "up"
        max_depth: Optional[int] = None
        if self.peek().type is TokenType.NUMBER:
            max_depth = int(self.advance().value)  # type: ignore[arg-type]
        return RecursiveStructure(atom_type, link_name, direction, max_depth)

    def parse_path(self) -> StructurePath:
        elements: List[Union[StructureNode, StructureBranch]] = [self.parse_node(None)]
        while self.peek().type is TokenType.DASH:
            self.advance()
            link_name = "-"
            if self.peek().type is TokenType.BRACKET_NAME:
                link_name = str(self.advance().value)
                self.expect(TokenType.DASH)
            elements.append(self.parse_node(link_name))
        return StructurePath(tuple(elements))

    def parse_node(self, link_name: Optional[str]) -> Union[StructureNode, StructureBranch]:
        token = self.peek()
        if token.type is TokenType.LPAREN:
            self.advance()
            branches = [self.parse_path()]
            while self.peek().type is TokenType.COMMA:
                self.advance()
                branches.append(self.parse_path())
            self.expect(TokenType.RPAREN)
            return StructureBranch(tuple(branches))
        if token.type in (TokenType.IDENT, TokenType.BRACKET_NAME):
            self.advance()
            return StructureNode(str(token.value), link_name)
        raise MQLSyntaxError(
            f"expected an atom type or a branch group, found {token.value!r}",
            token.line,
            token.column,
        )

    # ------------------------------------------------------------- condition

    def parse_condition(self):
        return self.parse_or()

    def parse_or(self):
        operands = [self.parse_and()]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return operands[0]
        return LogicalCondition("OR", tuple(operands))

    def parse_and(self):
        operands = [self.parse_not()]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return operands[0]
        return LogicalCondition("AND", tuple(operands))

    def parse_not(self):
        if self.accept_keyword("NOT"):
            return NotCondition(self.parse_not())
        return self.parse_primary()

    def parse_primary(self):
        if self.peek().type is TokenType.LPAREN:
            self.advance()
            condition = self.parse_condition()
            self.expect(TokenType.RPAREN)
            return condition
        return self.parse_comparison()

    def parse_comparison(self) -> ComparisonCondition:
        lhs = self.parse_attribute_reference()
        operator_token = self.expect(TokenType.OPERATOR)
        rhs: object
        token = self.peek()
        if token.type is TokenType.IDENT:
            rhs = self.parse_attribute_reference()
        else:
            try:
                rhs = self.parse_literal()
            except MQLSyntaxError:
                raise MQLSyntaxError(
                    f"expected a literal or attribute reference, found {token.value!r}",
                    token.line,
                    token.column,
                ) from None
        return ComparisonCondition(lhs, str(operator_token.value), rhs)

    def parse_attribute_reference(self) -> AttributeReference:
        first = self.expect(TokenType.IDENT)
        if self.peek().type is TokenType.DOT:
            self.advance()
            second = self.expect(TokenType.IDENT)
            return AttributeReference(str(second.value), str(first.value))
        return AttributeReference(str(first.value))


def parse(text: "str | List[Token]") -> "Statement | ExplainStatement":
    """Parse an MQL statement (source text or a prepared token list) into an AST."""
    tokens = tokenize(text) if isinstance(text, str) else text
    return _Parser(tokens).parse_input()


_VALUE_CONTEXT = (TokenType.OPERATOR, TokenType.COLON)
# Aliases for the per-token loop below (an enum member lookup costs
# several times a global read).
_STRING, _NUMBER, _DASH, _BRACKET_NAME = (
    TokenType.STRING,
    TokenType.NUMBER,
    TokenType.DASH,
    TokenType.BRACKET_NAME,
)


def template(tokens: List[Token]) -> Tuple[tuple, List[object]]:
    """The key of the statement template of *tokens* and its literals.

    The key holds every token's value — keywords, identifiers and symbols
    never share a value, the other types are paired with theirs — except
    that a literal in a value position contributes only its token type; its
    value goes to the list, in statement order.  Positions are left out, so
    spacing, comments and the length of a literal never split a template.
    """
    key: List[object] = []
    append = key.append
    values: List[object] = []
    previous = before = None
    for kind, value, _line, _column in tokens:
        if kind is _STRING or kind is _NUMBER:
            if previous in _VALUE_CONTEXT or (
                previous is _DASH and before in _VALUE_CONTEXT
            ):
                append(kind)
                values.append(value)
            else:
                append((kind, value))
        elif kind is _BRACKET_NAME:
            append((kind, value))
        else:
            append(value)
        before = previous
        previous = kind
    return tuple(key), values


def parse_template(tokens: List[Token]) -> "Statement | ExplainStatement":
    """Parse *tokens* with a :class:`~repro.mql.ast_nodes.Slot` in each value
    position (slot *i* stands for the *i*-th literal :func:`template`
    collects; its key has one element per token, a bare token type where a
    slot goes)."""
    key, _ = template(tokens)
    slotted = list(tokens)
    slots = 0
    for index, part in enumerate(key):
        if isinstance(part, TokenType):
            slotted[index] = tokens[index]._replace(value=Slot(slots, tokens[index].value))
            slots += 1
    return _Parser(slotted).parse_input()
