"""Tokenizer for MQL statements.

MQL identifiers may contain letters, digits and underscores; atom-type and
link-type names containing ``-`` (like ``state-area``) are written inside
square brackets when they must be referenced explicitly (``[state-area]``),
because the bare ``-`` is the structure-path separator.  String literals use
single quotes (SQL style), numbers are integers or decimals written with the
ASCII digits ``0-9`` (any other digit character is an unexpected character).

The scan is one pass of one compiled pattern (:data:`_TOKEN_PATTERN`): every
alternative names its token kind, and a final catch-all alternative turns
any character no other alternative accepts into an :class:`MQLSyntaxError`,
so no input position is ever skipped.  Positions are 1-based lines and
0-based columns; a string literal or bracketed name spanning a newline moves
the line count like any other newline.  The statement cache of
:class:`~repro.mql.interpreter.MQLInterpreter` runs this scan on every
statement it serves — it is the only front-end stage a cached statement
pays for — which is why :class:`Token` is a plain named tuple.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.exceptions import MQLSyntaxError

KEYWORDS = {
    "EXPLAIN",
    "SELECT",
    "ALL",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "UNION",
    "DIFFERENCE",
    "INTERSECT",
    "RECURSIVE",
    "DOWN",
    "UP",
    "TRUE",
    "FALSE",
    "INSERT",
    "VALUES",
    "DELETE",
    "MODIFY",
    "SET",
    "CASCADE",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
    "WORK",
    "CHECKPOINT",
    "GROUP",
    "BY",
    "DISTINCT",
}


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    BRACKET_NAME = "bracket_name"  # [state-area] — explicit link-type name
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"  # = != <> < <= > >=
    DASH = "dash"  # the structure separator '-'
    STAR = "star"  # '*' — COUNT(*)
    LPAREN = "lparen"
    RPAREN = "rparen"
    LBRACE = "lbrace"  # { } delimit nested object literals (INSERT ... VALUES)
    RBRACE = "rbrace"
    COLON = "colon"  # key/value separator inside object literals
    COMMA = "comma"
    DOT = "dot"
    SEMICOLON = "semicolon"
    EOF = "eof"


class Token(NamedTuple):
    """A single token with its source position (1-based line, 0-based column)."""

    type: TokenType
    value: object
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """``True`` when this token is the keyword *word* (case-insensitive match done at lexing)."""
        return self.type is TokenType.KEYWORD and self.value == word


#: One alternative per token kind, tried in this order at every position,
#: each followed by the blanks after it (so a blank run only starts a match
#: at the beginning of a line); ``error`` accepts any single character the
#: others refuse.  ``\w`` is ``str.isalnum()`` plus ``_`` — the identifier
#: alphabet — and an identifier must start with a letter or ``_`` (checked
#: on the match).  Only ``re`` features of Python 3.9 are used.
_TOKEN_PATTERN = re.compile(
    r"(?:(?P<number>[0-9]+(?:\.[0-9]+)?)"
    r"|(?P<word>\w+)"
    r"|(?P<comment>--[^\n]*)"
    r"|(?P<symbol>!=|<>|<=|>=|[-*(){}:,.;=<>])"
    r"|'(?P<string>[^']*)'"
    r"|(?P<newline>\n)"
    r"|\[(?P<bracket>[^\]]*)\]"
    r"|(?P<blank>)(?=[ \t\r])"
    r"|(?P<error>.))"
    r"[ \t\r]*"
)

_SYMBOLS = {
    "-": TokenType.DASH,
    "*": TokenType.STAR,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ":": TokenType.COLON,
    ",": TokenType.COMMA,
    ".": TokenType.DOT,
    ";": TokenType.SEMICOLON,
    **{op: TokenType.OPERATOR for op in ("=", "!=", "<>", "<", "<=", ">", ">=")},
}

_ERRORS = {
    "'": "unterminated string literal",
    "[": "unterminated bracketed name",
    "!": "unexpected '!' (did you mean '!=')",
}

#: Builds a :class:`Token` without the named tuple's Python-level ``__new__``.
_new_token = tuple.__new__

# Module-level aliases: an enum member lookup costs several times a global
# read, and the loop below does one per token.
_KEYWORD, _IDENT, _STRING, _NUMBER, _BRACKET_NAME, _EOF = (
    TokenType.KEYWORD,
    TokenType.IDENT,
    TokenType.STRING,
    TokenType.NUMBER,
    TokenType.BRACKET_NAME,
    TokenType.EOF,
)


def tokenize(text: str) -> List[Token]:
    """Tokenize an MQL statement; raises :class:`MQLSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    # A trailing comment leaves the end-of-input position where it began.
    end = len(text)
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup
        start = match.start()
        if kind == "word":
            word = match.group(kind)
            if word in KEYWORDS:
                append(_new_token(Token, (_KEYWORD, word, line, start - line_start)))
                continue
            upper = word.upper()
            if upper in KEYWORDS:
                append(_new_token(Token, (_KEYWORD, upper, line, start - line_start)))
            elif word[0].isalpha() or word[0] == "_":
                append(_new_token(Token, (_IDENT, word, line, start - line_start)))
            else:
                # A digit character outside 0-9 ('²', '٣'): never a number.
                raise MQLSyntaxError(
                    f"unexpected character {word[0]!r}", line, start - line_start
                )
        elif kind == "symbol":
            symbol = match.group(kind)
            append(_new_token(Token, (_SYMBOLS[symbol], symbol, line, start - line_start)))
        elif kind == "string" or kind == "bracket":
            value = match.group(kind)
            token_type, shown = (_STRING, value) if kind == "string" else (_BRACKET_NAME, value.strip())
            append(_new_token(Token, (token_type, shown, line, start - line_start)))
            if "\n" in value:
                line += value.count("\n")
                line_start = text.rindex("\n", start, match.end(kind)) + 1
        elif kind == "number":
            literal = match.group(kind)
            value = float(literal) if "." in literal else int(literal)
            append(_new_token(Token, (_NUMBER, value, line, start - line_start)))
        elif kind == "newline":
            line += 1
            line_start = start + 1
        elif kind == "comment":
            if match.end() == len(text):
                end = start
        elif kind == "error":
            char = match.group(kind)
            message = _ERRORS.get(char, f"unexpected character {char!r}")
            raise MQLSyntaxError(message, line, start - line_start)
    append(_new_token(Token, (_EOF, None, line, end - line_start)))
    return tokens
