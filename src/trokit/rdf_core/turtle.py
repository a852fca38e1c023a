"""A deterministic Turtle subset: parser and writer.

Supported syntax: @prefix / PREFIX directives, IRIs in angle brackets,
prefixed names, the ``a`` keyword, labelled blank nodes, short and long
double-quoted strings, integer and decimal shorthand, ``^^`` datatypes,
language tags, comma and semicolon grouping, and ``#`` comments.

Deliberately out of scope (rejected with an error naming the
construct): collections, anonymous blank node property lists ``[]``,
base directives and relative IRIs, boolean and double shorthand,
single-quoted strings.

The tokenizer is one compiled pattern, ``_TOKEN_RE``, matched at
successive offsets: each match consumes the whitespace and comments
before a token and then the token, named by its group. Tokens are
``(kind, value, offset)`` tuples that the parser pulls one at a time,
so the token stream is never held in memory. Where the pattern does not
match, ``_diagnose`` inspects the text there and raises the error.
Positions are worked out from the offset only when a ``ParseError`` is
raised: lines end at ``\n`` and columns count code points from 1.
Escapes must name a Unicode scalar value; a surrogate or a code point
above U+10FFFF is a parse error at its backslash; a raw lone surrogate
is one where it stands in a string, and at the ``<`` of an IRI.
Each parse memoises its terms by text (IRIREF body or prefixed-name
expansion; lexical, datatype, language), so a distinct term is validated
once and a repeated one is one object; the memo dies with the parse.
Triples go in through ``Graph._add``, with no ``Triple``.

The writer emits one fixed shape for a given graph: prefixes sorted,
subjects sorted, ``rdf:type`` first as ``a``, remaining predicates and
all objects sorted. Parsing its output yields the original graph.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Iterator
from typing import NoReturn

from .graph import Graph
from .model import (
    _IRI_EXCLUDED,
    _LANG_TAG_RE,
    _SURROGATE_RE,
    _SURROGATES,
    RDF_TYPE,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    escape_literal,
)


class ParseError(ValueError):
    """A syntax error at a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_Token = tuple[str, object, int]

_HEX = "[0-9A-Fa-f]"
# \u and \U escapes of Unicode scalar values only: no surrogates, nothing above U+10FFFF
_UCHAR = rf"\\(?:u|U0000)(?![Dd][89A-Fa-f]){_HEX}{{4}}|\\U(?:000[1-9A-Fa-f]|0010){_HEX}{{4}}"
_ECHAR = r"""\\[tbnrf"'\\]"""
# Bodies are unrolled as normal* (special normal*)*: each special starts
# with a character normal excludes, so a failing match backtracks linearly.
_IRI_BODY = rf"[^{_IRI_EXCLUDED}]*(?:(?:{_UCHAR})[^{_IRI_EXCLUDED}]*)*"
_SHORT_BODY = rf'[^"\\\n\r{_SURROGATES}]*(?:(?:{_ECHAR}|{_UCHAR})[^"\\\n\r{_SURROGATES}]*)*'
# a run of three or more quotes ends a long string; its extra quotes are content
_LONG_BODY = rf'[^"\\{_SURROGATES}]*(?:(?:"{{1,2}}(?!")|{_ECHAR}|{_UCHAR})[^"\\{_SURROGATES}]*)*'
_PN_PREFIX = r"[A-Za-z][A-Za-z0-9_\-]*"
# no leading '-', medial dots only: a trailing dot ends the statement
_LOCAL = (
    rf"(?:(?:[A-Za-z0-9_]|%{_HEX}{{2}})[A-Za-z0-9_\-]*"
    rf"(?:(?:%{_HEX}{{2}}|\.(?=[A-Za-z0-9_\-%]))[A-Za-z0-9_\-]*)*)?"
)
# comments must run to the end of the line, so no token is found inside one
_TRIVIA = r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*"
_WORD_END = r"(?![A-Za-z0-9_\-])"
_NUMBER_END = r"(?![0-9]|[eE][+\-]?[0-9])"

_TOKEN_RE = re.compile(
    _TRIVIA
    + "(?:"
    + "|".join(
        [
            rf"(?P<pname>(?:{_PN_PREFIX})?:{_LOCAL})",
            rf'(?P<string>"(?!""){_SHORT_BODY}")',
            rf"(?P<iriref><{_IRI_BODY}>)",
            r"(?P<dot>\.(?![0-9]))",
            r"(?P<semicolon>;)",
            r"(?P<comma>,)",
            r"(?P<at>@[A-Za-z0-9\-]*)",
            rf"(?P<a>a{_WORD_END})",
            r"(?P<datatype>\^\^)",
            rf'(?P<long>"""{_LONG_BODY}"*""")',
            rf"(?P<decimal>[+\-]?[0-9]*\.[0-9]+{_NUMBER_END})",
            rf"(?P<integer>[+\-]?[0-9]+(?!\.[0-9]){_NUMBER_END})",
            r"(?P<blank>_:[A-Za-z0-9_]+)",
            rf"(?P<prefix>(?i:prefix){_WORD_END})",
            r"(?P<eof>\Z)",
        ]
    )
    + ")"
)

_ESCAPE_RE = re.compile(rf"\\(?:u{_HEX}{{4}}|U{_HEX}{{8}}|.)")
_SHORT_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _unescape(m: re.Match) -> str:
    esc = m.group()
    return chr(int(esc[2:], 16)) if len(esc) > 2 else _SHORT_ESCAPES[esc[1]]


def _error(text: str, offset: int, message: str) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _iri(text: str, start: int, body: str, terms: dict) -> Iri:
    """The Iri of an IRIREF body, or of a prefixed name's expansion (no backslash, so its own body)."""
    iri = terms.get(body)
    if iri is None:
        try:
            iri = terms[body] = Iri(_ESCAPE_RE.sub(_unescape, body) if "\\" in body else body)
        except ValueError as exc:
            raise _error(text, start, str(exc)) from None
    return iri


def _tokens(text: str, terms: dict) -> Iterator[_Token]:
    """Yield the tokens of text, ending with ("eof", "", len(text)); IRIREFs go through terms."""
    match = _TOKEN_RE.match
    pos = 0
    last = ""
    while True:
        m = match(text, pos)
        if m is None:
            _diagnose(text, pos)
        kind = m.lastgroup
        value = m.group(kind)
        start = m.start(kind)
        pos = m.end()
        if kind == "pname":
            prefix, _, local = value.partition(":")
            value = (prefix, local)
        elif kind == "string" or kind == "long":
            value = value[1:-1] if kind == "string" else value[3:-3]
            kind = "string"
            if "\\" in value:
                value = _ESCAPE_RE.sub(_unescape, value)
        elif kind == "iriref":
            value = _iri(text, start, value[1:-1], terms)
        elif kind == "at":
            # '@' right after a string is a language tag, anywhere else a directive
            if last == "string":
                kind, value = "langtag", value[1:]
                if not _LANG_TAG_RE.match(value):
                    raise _error(text, start, f"malformed language tag '@{value}'")
            elif value == "@prefix" and not text.startswith("_", pos):
                kind = "prefix"
            else:
                _diagnose(text, start)
        elif kind == "blank":
            value = BlankNode(value[2:])
        yield kind, value, start
        if kind == "eof":
            return
        last = kind


_PN_PREFIX_RE = re.compile(_PN_PREFIX)
_IRI_SCAN_RE = re.compile(rf"<[^>\n\\]*(?:(?:{_UCHAR})[^>\n\\]*)*")
_SHORT_BODY_RE = re.compile(_SHORT_BODY)
_LONG_BODY_RE = re.compile(_LONG_BODY)
_NUMBER_RE = re.compile(r"[+\-]?[0-9]*(?:\.[0-9]+)?")
_EXPONENT_RE = re.compile(r"[eE][+\-]?[0-9]")
_HEX_RUN_RE = re.compile(f"{_HEX}*")
_TRIVIA_RE = re.compile(_TRIVIA)
_UNSUPPORTED = {
    "'": "single-quoted strings are not supported",
    "(": "collections are not supported",
    ")": "collections are not supported",
    "[": "anonymous blank node property lists are not supported",
    "]": "anonymous blank node property lists are not supported",
    "^": "unexpected '^'",
}


def _diagnose(text: str, pos: int) -> NoReturn:
    """Raise the ParseError for the token after pos, which does not lex."""
    start = _TRIVIA_RE.match(text, pos).end()
    ch = text[start]
    if ch == "<":
        end = _IRI_SCAN_RE.match(text, start).end()
        if text.startswith("\\", end):
            _escape_error(text, end, " in IRI")
        if not text.startswith(">", end):
            raise _error(text, start, "unterminated IRI reference")
        try:
            Iri(_ESCAPE_RE.sub(_unescape, text[start + 1 : end]))
        except ValueError as exc:
            raise _error(text, start, str(exc)) from None
    elif ch == '"':
        if text.startswith('"""', start):
            end = _LONG_BODY_RE.match(text, start + 3).end()
        else:
            end = _SHORT_BODY_RE.match(text, start + 1).end()
        if text.startswith("\\", end):
            _escape_error(text, end, "")
        if _SURROGATE_RE.match(text, end):
            raise _error(text, end, f"lone surrogate U+{ord(text[end]):04X} is not a character")
        raise _error(text, start, "unterminated string literal")
    elif ch == "@":
        m = _PN_PREFIX_RE.match(text, start + 1)
        word = m.group() if m else ""
        if word == "base":
            raise _error(text, start, "base directives are not supported")
        raise _error(text, start, f"unknown directive '@{word}'")
    elif ch == "_" and text.startswith(":", start + 1):
        raise _error(text, start, "missing blank node label")
    elif ch in "+-.0123456789":
        if _EXPONENT_RE.match(text, _NUMBER_RE.match(text, start).end()):
            raise _error(text, start, "double literals are not supported")
        raise _error(text, start, "malformed numeric literal")
    elif ch.isascii() and ch.isalpha():
        word = _PN_PREFIX_RE.match(text, start).group()
        if word in ("true", "false"):
            raise _error(text, start, "boolean literals are not supported")
        if word.upper() == "BASE":
            raise _error(text, start, "base directives are not supported")
        raise _error(text, start, f"unexpected bare word '{word}'")
    raise _error(text, start, _UNSUPPORTED.get(ch, f"unexpected character {ch!r}"))


def _escape_error(text: str, at: int, where: str) -> NoReturn:
    kind = text[at + 1 : at + 2]
    width = {"u": 4, "U": 8}.get(kind)
    if width is None:
        raise _error(text, at, f"invalid escape sequence '\\{kind}'{where}")
    digits = _HEX_RUN_RE.match(text, at + 2, at + 2 + width).group()
    if len(digits) < width:
        raise _error(text, at, f"malformed \\{kind} escape")
    raise _error(text, at, f"escape '\\{kind}{digits}' does not encode a character")


_DESCRIBE = {
    "iriref": "IRI",
    "pname": "prefixed name",
    "blank": "blank node",
    "string": "string literal",
    "langtag": "language tag",
    "integer": "integer literal",
    "decimal": "decimal literal",
    "dot": "'.'",
    "semicolon": "';'",
    "comma": "','",
    "datatype": "'^^'",
    "a": "'a'",
    "prefix": "prefix directive",
    "eof": "end of input",
}


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._terms: dict = {}  # IRI text -> Iri (see _iri), (lexical, datatype, language) -> Literal
        self._tokens = _tokens(text, self._terms)
        self._tok = next(self._tokens)

    def _next(self) -> _Token:
        tok = self._tok
        if tok[0] != "eof":
            self._tok = next(self._tokens)
        return tok

    def _error(self, message: str, tok: _Token) -> ParseError:
        return _error(self._text, tok[2], message)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._tok
        if tok[0] != kind:
            raise self._error(f"expected {what}, found {_DESCRIBE[tok[0]]}", tok)
        return self._next()

    def parse(self) -> Graph:
        graph = Graph()
        while self._tok[0] != "eof":
            if self._tok[0] == "prefix":
                self._directive(graph)
            else:
                self._triples(graph)
        return graph

    def _directive(self, graph: Graph) -> None:
        form = self._next()[1]
        name = self._expect("pname", "prefix declaration")
        prefix, local = name[1]
        if local:
            raise self._error("expected prefix declaration like 'p:'", name)
        ns = self._expect("iriref", "namespace IRI")[1]
        if form == "@prefix":
            self._expect("dot", "'.' after @prefix directive")
        graph.prefixes[prefix] = ns

    def _triples(self, graph: Graph) -> None:
        subject = self._subject(graph)
        while True:
            verb = self._verb(graph)
            self._object_list(graph, subject, verb)
            if self._tok[0] != "semicolon":
                break
            while self._tok[0] == "semicolon":
                self._next()
            if self._tok[0] in ("dot", "eof"):
                break
        self._expect("dot", "'.' at end of statement")

    def _object_list(self, graph: Graph, subject: Iri | BlankNode, verb: Iri) -> None:
        while True:
            graph._add(subject, verb, self._object(graph))
            if self._tok[0] != "comma":
                return
            self._next()

    def _resolve(self, graph: Graph, tok: _Token) -> Iri:
        prefix, local = tok[1]
        ns = graph.prefixes.get(prefix)
        if ns is None:
            raise self._error(f"undeclared prefix '{prefix}:'", tok)
        return _iri(self._text, tok[2], ns.value + local, self._terms)

    def _literal(self, lexical: str, datatype: Iri = XSD_STRING, language: str | None = None) -> Literal:
        key = (lexical, datatype, language)
        lit = self._terms.get(key)
        if lit is None:
            lit = self._terms[key] = Literal(lexical, datatype, language)
        return lit

    def _subject(self, graph: Graph) -> Iri | BlankNode:
        tok = self._next()
        kind = tok[0]
        if kind == "iriref" or kind == "blank":
            return tok[1]
        if kind == "pname":
            return self._resolve(graph, tok)
        raise self._error(f"expected subject (IRI or blank node), found {_DESCRIBE[kind]}", tok)

    def _verb(self, graph: Graph) -> Iri:
        tok = self._next()
        kind = tok[0]
        if kind == "pname":
            return self._resolve(graph, tok)
        if kind == "a":
            return RDF_TYPE
        if kind == "iriref":
            return tok[1]
        raise self._error(f"expected predicate IRI, found {_DESCRIBE[kind]}", tok)

    def _object(self, graph: Graph) -> Term:
        tok = self._next()
        kind = tok[0]
        if kind == "pname":
            return self._resolve(graph, tok)
        if kind == "string":
            return self._literal_tail(graph, tok)
        if kind == "iriref" or kind == "blank":
            return tok[1]
        if kind == "integer":
            return self._literal(tok[1], XSD_INTEGER)
        if kind == "decimal":
            return self._literal(tok[1], XSD_DECIMAL)
        raise self._error(f"expected object (IRI, blank node or literal), found {_DESCRIBE[kind]}", tok)

    def _literal_tail(self, graph: Graph, tok: _Token) -> Literal:
        nxt = self._tok
        if nxt[0] == "datatype":
            self._next()
            dt_tok = self._next()
            if dt_tok[0] == "iriref":
                dt = dt_tok[1]
            elif dt_tok[0] == "pname":
                dt = self._resolve(graph, dt_tok)
            else:
                raise self._error(f"expected datatype IRI, found {_DESCRIBE[dt_tok[0]]}", dt_tok)
            try:
                return self._literal(tok[1], dt)
            except ValueError as exc:
                raise self._error(str(exc), dt_tok) from None
        if nxt[0] == "langtag":  # the lexer has checked the tag
            self._next()
            return self._literal(tok[1], language=nxt[1])
        return self._literal(tok[1])


def parse_turtle(text: str) -> Graph:
    """Parse the Turtle subset; raise ParseError with line and column."""
    return _Parser(text).parse()


_INTEGER_RE = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL_RE = re.compile(r"^[+-]?[0-9]*\.[0-9]+$")
_SAFE_LOCAL_RE = re.compile(_LOCAL)


def _prefix_table(graph: Graph) -> list[tuple[str, str]]:
    # longest namespace first so the most specific prefix wins
    table = [(ns.value, prefix) for prefix, ns in graph.prefixes.items()]
    table.sort(key=lambda item: (-len(item[0]), item[1]))
    return table


def _render_iri(iri: Iri, table: list[tuple[str, str]]) -> str:
    for ns, prefix in table:
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if _SAFE_LOCAL_RE.fullmatch(local):
                return f"{prefix}:{local}"
    return iri.n3()


def _render_term(term: Term, render_iri: Callable[[Iri], str]) -> str:
    if isinstance(term, Iri):
        return render_iri(term)
    if isinstance(term, Literal):
        if term.language is not None:
            return f'"{escape_literal(term.lexical)}"@{term.language}'
        if term.datatype == XSD_INTEGER and _INTEGER_RE.match(term.lexical):
            return term.lexical
        if term.datatype == XSD_DECIMAL and _DECIMAL_RE.match(term.lexical):
            return term.lexical
        if term.datatype == XSD_STRING:
            return f'"{escape_literal(term.lexical)}"'
        return f'"{escape_literal(term.lexical)}"^^{render_iri(term.datatype)}'
    return term.n3()


def serialize_turtle(graph: Graph) -> str:
    """Write the graph in the subset's single deterministic shape; ValueError on an unreadable prefix."""
    for prefix in graph.prefixes:
        if prefix and not _PN_PREFIX_RE.fullmatch(prefix):
            raise ValueError(f"prefix {prefix!r} is not a Turtle prefix name")
    table = _prefix_table(graph)
    render_iri = functools.cache(lambda iri: _render_iri(iri, table))  # this call's memo
    chunks: list[str] = []
    prefix_lines = [
        f"@prefix {prefix}: {graph.prefixes[prefix].n3()} ."
        for prefix in sorted(graph.prefixes)
    ]
    if prefix_lines:
        chunks.append("\n".join(prefix_lines))

    for subject, po in sorted(graph._spo.items(), key=lambda item: item[0].n3()):
        preds = sorted(po, key=lambda p: (p != RDF_TYPE, p.n3()))
        segments = []
        for pred in preds:
            verb = "a" if pred == RDF_TYPE else render_iri(pred)
            objs = ", ".join(_render_term(o, render_iri) for o in sorted(po[pred], key=lambda t: t.n3()))
            segments.append(f"{verb} {objs}")
        body = " ;\n    ".join(segments)
        chunks.append(f"{_render_term(subject, render_iri)} {body} .")

    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
