"""Parser for the surface grammar of terms and formulas.

Grammar: atoms `P(t1,...,tn)` or bare `P`; terms `x`, `c`, `f(t,...)`;
binders `eps x. F`, `tau x. F`, `all x. F`, `ex x. F` (the body extends as
far right as possible); connectives `~`, `&`, `|`, `->` with precedence
~ > & > | > -> and right-associative `->`; `top`, `bot`; parentheses.

A bare identifier is a variable when it is bound in scope or matches
[u-z][0-9']*, and a constant otherwise.  Printing via syntax.to_text
round-trips modulo whitespace.
"""

from __future__ import annotations

import re

from .syntax import (
    App,
    Atom,
    BOT,
    TOP,
    Formula,
    Implies,
    Not,
    And,
    Or,
    Record,
    Term,
    Var,
    eps,
    exists,
    forall,
    tau,
)

KEYWORDS = {"eps", "tau", "all", "ex", "top", "bot"}
# A token after optional whitespace, or else one visible character, an error:
# so each match starts where the last one ended, and only whitespace trails them.
_TOKEN_RE = re.compile(r"\s*(?:(->|[()~&|,.]|[A-Za-z_][A-Za-z0-9_']*)|\S)")
_VAR_RE = re.compile(r"[u-z][0-9']*\Z")
_PUNCT = "-()~&|,."  # the first characters of _TOKEN_RE's punctuation


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} at position {pos}: {text[:pos]}<HERE>{text[pos:]}")
        self.pos = pos


class _Token(Record):
    __slots__ = _fields = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int) -> None:
        self.kind, self.value, self.pos = kind, value, pos  # kind: "ident", "kw", or the punctuation itself


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text; a match's first character tells punctuation from a word."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        value = m.group(1)
        if value is None:
            raise ParseError("unexpected character", m.start(), text)
        kind = value if value[0] in _PUNCT else "kw" if value in KEYWORDS else "ident"
        tokens.append(_Token(kind, value, m.start(1)))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.scope: list[str] = []

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.pos, self.text)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.pos, self.text)

    # formula := implication (right associative)
    def formula(self) -> Formula:
        return self._chain("->", Implies, self.disjunction)

    def disjunction(self) -> Formula:
        return self._chain("|", Or, self.conjunction)

    def conjunction(self) -> Formula:
        return self._chain("&", And, self.unary)

    def _chain(self, op: str, node, operand) -> Formula:
        """operand (op operand)*, nested to the right; a loop, not recursion."""
        parts = [operand()]
        while self.peek().kind == op:
            self.next()
            parts.append(operand())
        out = parts.pop()
        for left in reversed(parts):
            out = node(left, out)
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":  # a run of ~ is read in a loop, not one recursion each
            nots = 0
            while self.peek().kind == "~":
                self.next()
                nots += 1
            out = self.unary()
            for _ in range(nots):
                out = Not(out)
            return out
        if tok.kind == "kw" and tok.value in ("all", "ex"):
            self.next()
            name = self.expect("ident").value
            self.expect(".")
            self.scope.append(name)
            body = self.formula()
            self.scope.pop()
            return (forall if tok.value == "all" else exists)(name, body)
        if tok.kind == "kw" and tok.value == "top":
            self.next()
            return TOP
        if tok.kind == "kw" and tok.value == "bot":
            self.next()
            return BOT
        if tok.kind == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok.kind == "ident":
            self.next()
            args = self.maybe_args()
            return Atom(tok.value, args)
        raise self.fail("expected a formula")

    def maybe_args(self) -> tuple[Term, ...]:
        if self.peek().kind != "(":
            return ()
        self.next()
        args = [self.term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "kw" and tok.value in ("eps", "tau"):
            self.next()
            name = self.expect("ident").value
            self.expect(".")
            self.scope.append(name)
            body = self.formula()
            self.scope.pop()
            return (eps if tok.value == "eps" else tau)(name, body)
        if tok.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                return App(tok.value, self.maybe_args())
            if tok.value in self.scope or _VAR_RE.match(tok.value):
                return Var(tok.value)
            return App(tok.value, ())
        raise self.fail("expected a term")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    out = p.formula()
    if p.peek().kind != "eof":
        raise p.fail("trailing input")
    return out


def parse_term(text: str) -> Term:
    p = _Parser(text)
    out = p.term()
    if p.peek().kind != "eof":
        raise p.fail("trailing input")
    return out
