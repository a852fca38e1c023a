"""Namespace helpers and the vocabularies this package speaks.

``TRO.Role`` and ``TRO["Role"]`` both mint the full IRI; attribute
access keeps call sites readable, item access covers names that are
not Python identifiers.
"""

from __future__ import annotations

from .rdf_core import Iri


class Namespace:
    """A factory for IRIs sharing a common base; each name's IRI is built once."""

    def __init__(self, base: str) -> None:
        self.base = base
        self._cache: dict[str, Iri] = {}

    def __getitem__(self, name: str) -> Iri:
        iri = self._cache.get(name)
        if iri is None:
            iri = self._cache[name] = Iri(self.base + name)
        return iri

    def __getattr__(self, name: str) -> Iri:
        if name.startswith("_"):
            raise AttributeError(name)
        iri = self[name]
        setattr(self, name, iri)  # so later reads of the name are plain attribute lookups
        return iri

    def __repr__(self) -> str:
        return f"Namespace({self.base!r})"


RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")
XSD = Namespace("http://www.w3.org/2001/XMLSchema#")
DCTERMS = Namespace("http://purl.org/dc/terms/")
DC = Namespace("http://purl.org/dc/elements/1.1/")
VANN = Namespace("http://purl.org/vocab/vann/")
TIME = Namespace("http://www.w3.org/2006/time#")
DBO = Namespace("http://dbpedia.org/ontology/")
TRO = Namespace("http://ehu.eus/tro#")
EPO = Namespace("http://data.europa.eu/a4g/ontology#")
GIST = Namespace("https://ontologies.semanticarts.com/gist/")
SCHEMA = Namespace("http://schema.org/")
GR = Namespace("http://purl.org/goodrelations/v1#")

# each namespace above is bound to its name in lower case
_DEFAULT = {name.lower(): ns for name, ns in list(globals().items()) if isinstance(ns, Namespace)}


def default_prefixes() -> dict[str, Iri]:
    """A fresh prefix map for the namespaces above."""
    return {prefix: Iri(ns.base) for prefix, ns in _DEFAULT.items()}
