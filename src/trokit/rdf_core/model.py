"""RDF terms and triples.

Terms are immutable value objects: equality and hashing follow the
canonical (N-Triples style) form returned by ``n3()``, so terms and
triples can be used freely in sets and as dict keys. A hash is not
cached, so hot paths (the Turtle parser) reuse one object per term.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

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
_NEEDS_ESCAPE_RE = re.compile(r'[\x00-\x1f"\\\x7f]')


def escape_literal(text: str) -> str:
    """Escape a literal's lexical form for Turtle / N-Triples output."""
    return _NEEDS_ESCAPE_RE.sub(lambda m: _ESCAPES[m[0]], text)


@dataclass(frozen=True, slots=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI must be non-empty")
        bad = _BAD_IRI_CHAR_RE.search(self.value)
        if bad:
            raise ValueError(f"IRI contains disallowed character {bad.group()!r}: {self.value!r}")
        if not _SCHEME_RE.match(self.value):
            raise ValueError(f"IRI is not absolute (no scheme): {self.value!r}")

    def n3(self) -> str:
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value


XSD_STRING = Iri("http://www.w3.org/2001/XMLSchema#string")
XSD_INTEGER = Iri("http://www.w3.org/2001/XMLSchema#integer")
XSD_DECIMAL = Iri("http://www.w3.org/2001/XMLSchema#decimal")
XSD_DATE = Iri("http://www.w3.org/2001/XMLSchema#date")
XSD_ANY_URI = Iri("http://www.w3.org/2001/XMLSchema#anyURI")
RDF_TYPE = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
RDF_LANG_STRING = Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString")


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal.

    A language tag forces the datatype to ``rdf:langString``; with no
    datatype and no language the datatype defaults to ``xsd:string``.
    Tags are normalized to lowercase. Comparison is purely lexical:
    ``"1"`` and ``"01"`` are distinct even as ``xsd:integer``.
    """

    lexical: str
    datatype: Iri = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if _SURROGATE_RE.search(self.lexical):
            raise ValueError(f"literal contains a lone surrogate: {self.lexical!r}")
        if self.language is not None:
            if not _LANG_TAG_RE.match(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
            if self.datatype not in (XSD_STRING, RDF_LANG_STRING):
                raise ValueError("a language-tagged literal must have datatype rdf:langString")
            object.__setattr__(self, "language", self.language.lower())
            object.__setattr__(self, "datatype", RDF_LANG_STRING)
        elif self.datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString requires a language tag")

    def n3(self) -> str:
        quoted = f'"{escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{quoted}@{self.language}"
        if self.datatype == XSD_STRING:
            return quoted
        return f"{quoted}^^{self.datatype.n3()}"

    def __str__(self) -> str:
        return self.n3()


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A labelled blank node (labels restricted to [A-Za-z0-9_]+)."""

    label: str

    def __post_init__(self) -> None:
        if not _BLANK_LABEL_RE.match(self.label):
            raise ValueError(f"invalid blank node label: {self.label!r}")

    def n3(self) -> str:
        return f"_:{self.label}"

    def __str__(self) -> str:
        return self.n3()


Term = Union[Iri, Literal, BlankNode]


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
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def sort_key(self) -> tuple[str, str, str]:
        return (self.subject.n3(), self.predicate.n3(), self.object.n3())
