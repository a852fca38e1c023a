"""A deterministic Turtle subset: parser and writer.

Supported syntax: @prefix / PREFIX directives, IRIs in angle brackets,
prefixed names, the ``a`` keyword, labelled blank nodes, short and long
double-quoted strings, integer and decimal shorthand, ``^^`` datatypes,
language tags, comma and semicolon grouping, and ``#`` comments.

Deliberately out of scope (rejected with an error naming the
construct): collections, anonymous blank node property lists ``[]``,
base directives and relative IRIs, boolean and double shorthand,
single-quoted strings.

The parser is one loop over ``_TOKEN_RE.finditer(text)``: each match
consumes the whitespace and comments before a token and then the token,
named by its group, and a state says what the grammar accepts next, so
no token is held once it is used. The pattern's last alternative,
``error``, is empty: where no token lexes, it matches, so every match
starts where the previous one ended, and ``_diagnose`` inspects the text
there and raises the error. The grammar reads one token ahead, so a
token's lexical error is reported before an error that the token before
it raises once consumed (``_late``). Positions are worked out from the
offset only when a ``ParseError`` is raised: lines end at ``\n`` and
columns count code points from 1.
Escapes must name a Unicode scalar value; a surrogate or a code point
above U+10FFFF is a parse error at its backslash; a raw lone surrogate
is one where it stands in a string, and at the ``<`` of an IRI.
Each parse memoises every term under its own text, held once, and IRI
tokens until a prefix is bound: a term is validated once, a repeated one
is one object, and the memos die with the parse. Triples go in through
``Graph._add``, with no ``Triple``.
A string body goes through ``model.canonical_escapes``: ``model``, which
owns the canonical escapes, decides whether the body already has them.

The writer emits one fixed shape for a given graph: prefixes sorted,
subjects sorted, ``rdf:type`` first as ``a``, remaining predicates and
all objects sorted. Parsing its output yields the original graph. It
streams: the prefix block, then one chunk per subject in ``_spo`` order,
so it holds one subject's block and a bounded memo, never the whole text.
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
    _unescape,
    canonical_escapes,
    literal_text,
)


class ParseError(ValueError):
    """A syntax error at a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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
            r"(?P<error>)",  # nothing else lexes here: every match starts where the last one ended
        ]
    )
    + ")"
)

def _error(text: str, offset: int, message: str) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


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
            Iri(_unescape(text[start + 1 : end]))
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


def _lexed(text: str, m: re.Match, after_string: bool) -> str:
    """The kind token m lexes as ('langtag' for '@' after a string); raise its lexical error."""
    kind = m.lastgroup
    start = m.start(kind)
    if kind == "error":
        _diagnose(text, start)
    if kind == "iriref":
        _named(text, m, {}, {}, {})
    elif kind == "long":
        return "string"
    elif kind == "at":
        # '@' right after a string is a language tag, anywhere else a directive
        if after_string:
            if not _LANG_TAG_RE.match(m.group(kind)[1:]):
                raise _error(text, start, f"malformed language tag '{m.group(kind)}'")
            return "langtag"
        if m.group(kind) != "@prefix" or text.startswith("_", m.end()):
            _diagnose(text, start)
        return "prefix"
    return kind


def _late(text: str, m: re.Match, message: str) -> NoReturn:
    """Raise message at token m, after any lexical error of the next token: the grammar reads one ahead."""
    kind = m.lastgroup
    _lexed(text, _TOKEN_RE.match(text, m.end()), kind == "string" or kind == "long")  # at the end: eof again
    raise _error(text, m.start(kind), message)


def _expected(text: str, m: re.Match, what: str, late: bool = True) -> NoReturn:
    """Raise 'expected what, found ...' at token m, after its own lexical error; late once m is consumed."""
    message = f"expected {what}, found {_DESCRIBE[_lexed(text, m, False)]}"
    if late:
        _late(text, m, message)
    raise _error(text, m.start(m.lastgroup), message)


def _named(text: str, m: re.Match, prefixes: dict[str, Iri], terms: dict, names: dict) -> Iri:
    """The Iri of an IRIREF or prefixed-name token; terms holds each Iri under itself, found by its written text."""
    kind = m.lastgroup
    if kind == "iriref":  # an Iri's own text unless it holds an escape, which no Iri's text does
        written = m.group(kind)
    else:  # an expansion holds no backslash, so it is its Iri's text
        prefix, _, local = m.group(kind).partition(":")
        ns = prefixes.get(prefix)
        if ns is None:
            _late(text, m, f"undeclared prefix '{prefix}:'")
        written = ns[:-1] + local + ">"
    iri = terms.get(written)
    if iri is None:
        try:
            iri = Iri(_unescape(written[1:-1]))
        except ValueError as exc:
            if kind == "pname":  # a name is resolved once the token after it has lexed
                _late(text, m, str(exc))
            raise _error(text, m.start(kind), str(exc)) from None
        iri = terms.setdefault(iri, iri)
    names[m.group(kind)] = iri
    return iri


def _literal(text: str, m: re.Match, body: str, datatype: Iri, language: str | None, terms: dict) -> Literal:
    """The Literal of (body, datatype, language), whose last token is m; body is the string as written.

    terms holds each Literal under itself: a canonical body finds it by the text it writes,
    and no other body writes a Literal's text.
    """
    lit = terms.get(literal_text(body, datatype, language))
    if lit is None:
        try:
            lit = Literal._escaped(canonical_escapes(body), datatype, language)
        except ValueError as exc:
            _late(text, m, str(exc))
        lit = terms.setdefault(lit, lit)
    return lit


# what the grammar accepts next
(_SUBJECT, _VERB, _OBJECT, _AFTER_STRING, _DATATYPE, _AFTER_OBJECT, _SEMICOLONS,
 _NAME, _NAMESPACE, _DIRECTIVE_DOT) = range(10)


def parse_turtle(text: str) -> Graph:
    """Parse the Turtle subset; raise ParseError with line and column."""
    graph = Graph()
    add, prefixes = graph._add, graph.prefixes
    terms: dict = {}  # each Iri and Literal -> itself (see _named and _literal)
    names: dict[str, Iri] = {}  # IRIREF or prefixed-name token -> Iri, until a prefix is bound
    state = _SUBJECT
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if state == _AFTER_STRING:
            if kind == "datatype":
                state = _DATATYPE
                continue
            language = m.group(kind)[1:] if kind == "at" and _lexed(text, m, True) else None  # _lexed checks the tag
            add(subject, verb, _literal(text, m, body, XSD_STRING, language, terms))
            state = _AFTER_OBJECT
            if language is not None:
                continue
        if state == _AFTER_OBJECT:
            if kind == "semicolon":
                state = _SEMICOLONS
            elif kind == "dot":
                state = _SUBJECT
            elif kind == "comma":
                state = _OBJECT
            else:
                _expected(text, m, "'.' at end of statement", late=False)
            continue
        if state == _SEMICOLONS:
            if kind == "semicolon":
                continue
            if kind == "eof":
                _expected(text, m, "'.' at end of statement", late=False)
            if kind == "dot":
                state = _SUBJECT
                continue
            state = _VERB
        if state == _VERB:
            if kind == "pname" or kind == "iriref":
                verb = names.get(m.group(kind)) or _named(text, m, prefixes, terms, names)
            elif kind == "a":
                verb = RDF_TYPE
            else:
                _expected(text, m, "predicate IRI")
            state = _OBJECT
        elif state == _OBJECT:
            state = _AFTER_OBJECT
            if kind == "pname" or kind == "iriref":
                obj = names.get(m.group(kind)) or _named(text, m, prefixes, terms, names)
            elif kind == "string" or kind == "long":
                body = m.group(kind)[1:-1] if kind == "string" else m.group(kind)[3:-3]
                state = _AFTER_STRING
                continue
            elif kind == "blank":
                obj = BlankNode(m.group(kind)[2:])
            elif kind == "decimal" or kind == "integer":
                obj = _literal(text, m, m.group(kind), XSD_DECIMAL if kind == "decimal" else XSD_INTEGER, None, terms)
            else:
                _expected(text, m, "object (IRI, blank node or literal)")
            add(subject, verb, obj)
        elif state == _DATATYPE:
            if kind == "pname" or kind == "iriref":
                datatype = names.get(m.group(kind)) or _named(text, m, prefixes, terms, names)
            else:
                _expected(text, m, "datatype IRI")
            add(subject, verb, _literal(text, m, body, datatype, None, terms))
            state = _AFTER_OBJECT
        elif state == _SUBJECT:
            if kind == "pname" or kind == "iriref":
                subject = names.get(m.group(kind)) or _named(text, m, prefixes, terms, names)
            elif kind == "blank":
                subject = BlankNode(m.group(kind)[2:])
            elif kind == "eof":
                return graph
            elif kind == "prefix" or (kind == "at" and _lexed(text, m, False)):
                form = m.group(kind)
                state = _NAME
                continue
            else:
                _expected(text, m, "subject (IRI or blank node)")
            state = _VERB
        elif state == _NAME:
            if kind != "pname":
                _expected(text, m, "prefix declaration", late=False)
            prefix, _, local = m.group(kind).partition(":")
            if local:
                _late(text, m, "expected prefix declaration like 'p:'")
            state = _NAMESPACE
        elif state == _NAMESPACE:
            if kind != "iriref":
                _expected(text, m, "namespace IRI", late=False)
            prefixes[prefix] = _named(text, m, prefixes, terms, names)
            names.clear()
            state = _DIRECTIVE_DOT if form == "@prefix" else _SUBJECT
        else:  # _DIRECTIVE_DOT
            if kind != "dot":
                _expected(text, m, "'.' after @prefix directive", late=False)
            state = _SUBJECT


# datatype -> the lexical forms written bare
_BARE = {XSD_INTEGER: re.compile(r"[+-]?[0-9]+"), XSD_DECIMAL: re.compile(r"[+-]?[0-9]*\.[0-9]+")}
_SAFE_LOCAL_RE = re.compile(_LOCAL)
_RENDER_MEMO = 1024  # IRI renderings a write keeps, so its memory is bounded by the block, not the graph


def _prefix_table(graph: Graph) -> list[tuple[str, str]]:
    # longest namespace first so the most specific prefix wins
    table = [(ns.value, prefix) for prefix, ns in graph.prefixes.items()]
    table.sort(key=lambda item: (-len(item[0]), item[1]))
    return table


def _render_iri(iri: str, table: list[tuple[str, str]]) -> str:
    """An IRI's ``<...>`` text as a prefixed name where a prefix fits, else as it is."""
    for ns, prefix in table:
        if iri.startswith(ns, 1):
            local = iri[len(ns) + 1 : -1]
            if _SAFE_LOCAL_RE.fullmatch(local):
                return f"{prefix}:{local}"
    return iri


def _render_term(term: Term, render_iri: Callable[[str], str]) -> str:
    """The term in Turtle: its own text, but for IRIs and ``"..."^^<datatype>`` literals."""
    if isinstance(term, Iri):
        return render_iri(term)
    if not term.endswith(">"):  # a blank node, or a plain or language-tagged literal
        return term
    close = term.rindex('"')
    datatype = term[close + 3 :]
    if datatype in _BARE and _BARE[datatype].fullmatch(term, 1, close):
        return term[1:close]
    return term[: close + 3] + render_iri(datatype)


def _turtle_chunks(graph: Graph) -> Iterator[str]:
    """The prefix block, then one chunk per subject; ValueError before any chunk on an unreadable prefix."""
    for prefix in graph.prefixes:
        if prefix and not _PN_PREFIX_RE.fullmatch(prefix):
            raise ValueError(f"prefix {prefix!r} is not a Turtle prefix name")
    table = _prefix_table(graph)
    render_iri = functools.lru_cache(_RENDER_MEMO)(lambda iri: _render_iri(iri, table))  # this call's memo
    gap = ""  # a blank line between blocks
    if graph.prefixes:
        yield "".join(f"@prefix {prefix}: {graph.prefixes[prefix]} .\n" for prefix in sorted(graph.prefixes))
        gap = "\n"
    for subject in sorted(graph._spo):
        po = graph._spo[subject]
        segments = []
        for pred in sorted(po, key=lambda p: (p != RDF_TYPE, p)):
            verb = "a" if pred == RDF_TYPE else render_iri(pred)
            objs = ", ".join(_render_term(o, render_iri) for o in sorted(po[pred]))
            segments.append(f"{verb} {objs}")
        body = " ;\n    ".join(segments)
        yield f"{gap}{_render_term(subject, render_iri)} {body} .\n"
        gap = "\n"


def serialize_turtle(graph: Graph) -> str:
    """Write the graph in the subset's single deterministic shape; ValueError on an unreadable prefix."""
    return "".join(_turtle_chunks(graph))
