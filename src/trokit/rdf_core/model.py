"""RDF terms and triples.

A term is a ``str`` holding its canonical N-Triples text (``<iri>``, ``_:label``,
``"lexical"``, ``"lexical"@lang`` or ``"lexical"^^<datatype>``), so hashing (once
per object), equality and ordering are ``str``'s; the forms start with ``<``,
``_:`` and ``"``, so terms of two kinds are never equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
# Lone surrogates are no Unicode characters and cannot be written as UTF-8.
_SURROGATES = r"\ud800-\udfff"
_SURROGATE_RE = re.compile(f"[{_SURROGATES}]")
# The characters RDF 1.1 IRIREF excludes, plus surrogates, as the body of a regex class.
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\' + _SURROGATES
_BAD_IRI_CHAR_RE = re.compile(f"[{_IRI_EXCLUDED}]")
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_]+$")
_LANG_TAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")

# RDF 1.2 canonical N-Triples: ECHAR where one exists, else \uXXXX (upper-case hex)
# for the remaining C0 controls and DEL; every other character is written as is.
_ESCAPES = {chr(c): "\\u%04X" % c for c in (*range(0x20), 0x7F)} | {
    "\\": "\\\\",
    '"': '\\"',
    "\b": "\\b",
    "\t": "\\t",
    "\n": "\\n",
    "\f": "\\f",
    "\r": "\\r",
}
_MAPPED = re.escape("".join(_ESCAPES))  # the characters _ESCAPES maps, as the body of a regex class
_NEEDS_ESCAPE_RE = re.compile(f"[{_MAPPED}]")
# any ECHAR or UCHAR (Turtle's set, a superset of the canonical one), undone by _unescape
_ESCAPE_RE = re.compile(r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_UNESCAPES = {esc: char for char, esc in _ESCAPES.items() if len(esc) == 2} | {"\\'": "'"}
# a body as escape_literal writes one: no character that _ESCAPES maps, and only the escapes it writes
_CANONICAL_RE = re.compile(rf"[^{_MAPPED}]*(?:(?:{'|'.join(map(re.escape, _ESCAPES.values()))})[^{_MAPPED}]*)*")


def escape_literal(text: str) -> str:
    """Escape a literal's lexical form for Turtle / N-Triples output."""
    return _NEEDS_ESCAPE_RE.sub(lambda m: _ESCAPES[m[0]], text)


def _unescape(text: str) -> str:
    """The text with its escapes undone."""
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES.get(m[0]) or chr(int(m[0][2:], 16)), text) if "\\" in text else text


def canonical_escapes(written: str) -> str:
    """``escape_literal(_unescape(written))`` for a Turtle-escaped body, worked out only if it is not ``written``."""
    return written if _CANONICAL_RE.fullmatch(written) else escape_literal(_unescape(written))


class _Term(str):
    """A term held as its canonical N-Triples text, and pickled as that text: the constructors take its parts."""

    __slots__ = ()

    def n3(self) -> str:
        return self

    def __reduce__(self):
        return str.__new__, (type(self), str(self))


class Iri(_Term):
    """An absolute IRI, held as ``<value>``."""

    __slots__ = ()

    def __new__(cls, value: str) -> Iri:
        if not value:
            raise ValueError("IRI must be non-empty")
        bad = _BAD_IRI_CHAR_RE.search(value)
        if bad:
            raise ValueError(f"IRI contains disallowed character {bad.group()!r}: {value!r}")
        if not _SCHEME_RE.match(value):
            raise ValueError(f"IRI is not absolute (no scheme): {value!r}")
        return str.__new__(cls, "<" + value + ">")

    @property
    def value(self) -> str:
        return self[1:-1]


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")
XSD_INTEGER = Iri("http://www.w3.org/2001/XMLSchema#integer")
XSD_DECIMAL = Iri("http://www.w3.org/2001/XMLSchema#decimal")
XSD_DATE = Iri("http://www.w3.org/2001/XMLSchema#date")
XSD_ANY_URI = Iri("http://www.w3.org/2001/XMLSchema#anyURI")
RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
RDF_LANG_STRING = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")


class Literal(_Term):
    """An RDF literal, held as ``"escaped"``, ``"escaped"@lang`` or ``"escaped"^^<datatype>``.

    A language tag forces the datatype to ``rdf:langString``; with no
    datatype and no language the datatype defaults to ``xsd:string``.
    Tags are normalized to lowercase. Comparison is purely lexical:
    ``"1"`` and ``"01"`` are distinct even as ``xsd:integer``.
    """

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Iri = XSD_STRING, language: str | None = None) -> Literal:
        if _SURROGATE_RE.search(lexical):
            raise ValueError(f"literal contains a lone surrogate: {lexical!r}")
        return cls._escaped(escape_literal(lexical), datatype, language)

    @classmethod
    def _escaped(cls, escaped: str, datatype: Iri, language: str | None) -> Literal:
        """The literal whose lexical form, written with canonical escapes, is ``escaped``."""
        if language is not None:
            if not _LANG_TAG_RE.match(language):
                raise ValueError(f"malformed language tag: {language!r}")
            if datatype not in (XSD_STRING, RDF_LANG_STRING):
                raise ValueError("a language-tagged literal must have datatype rdf:langString")
        elif datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString requires a language tag")
        return str.__new__(cls, literal_text(escaped, datatype, language))

    @property
    def lexical(self) -> str:
        return _unescape(self[1 : self.rindex('"')])  # the suffix holds no quote: IRIs and tags exclude it

    @property
    def datatype(self) -> Iri:
        suffix = self[self.rindex('"') + 1 :]
        if not suffix:
            return XSD_STRING
        return RDF_LANG_STRING if suffix[0] == "@" else str.__new__(Iri, suffix[2:])

    @property
    def language(self) -> str | None:
        suffix = self[self.rindex('"') + 1 :]
        return suffix[1:] if suffix[:1] == "@" else None


def literal_text(escaped: str, datatype: Iri, language: str | None) -> str:
    """A literal's text from its escaped body, datatype and language; checks none of them (``Literal`` does)."""
    if language is not None:
        return '"' + escaped + '"@' + language.lower()
    return '"' + escaped + ('"' if datatype == XSD_STRING else '"^^' + datatype)


class BlankNode(_Term):
    """A labelled blank node (labels restricted to [A-Za-z0-9_]+), held as ``_:label``."""

    __slots__ = ()

    def __new__(cls, label: str) -> BlankNode:
        if not _BLANK_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        return str.__new__(cls, "_:" + label)

    @property
    def label(self) -> str:
        return self[2:]


Term = Iri | Literal | BlankNode


@dataclass(frozen=True, slots=True)
class Triple:
    """A subject-predicate-object statement.

    Invalid triples are unconstructible: the predicate must be an IRI
    and a literal may only appear in object position.
    """

    subject: Iri | BlankNode
    predicate: Iri
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (Iri, BlankNode)):
            raise ValueError("triple subject must be an IRI or blank node")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        if not isinstance(self.object, (Iri, Literal, BlankNode)):
            raise ValueError("triple object must be an IRI, literal or blank node")

    def n3(self) -> str:
        return self.subject + " " + self.predicate + " " + self.object + " ."

    def sort_key(self) -> tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)
