"""Constraint validation with a severity-graded report.

A fixed rule catalog, graded ERROR / WARN / INFO, runs over the graph
after subclass inference. Problems become report entries, never
exceptions, so one pass surfaces everything at once:

  ERROR  DISJOINT-CLASH    node typed into two disjoint classes
  ERROR  MISSING-REQUIRED  instance lacks a compulsory property
  ERROR  BAD-RANGE         property value outside its declared range
  ERROR  BAD-DATE          xsd:date literal is not a calendar date
  ERROR  INTERVAL-ORDER    end date precedes start date
  WARN   UNKNOWN-TERM      vocabulary-namespace IRI not in the registry
  WARN   NO-LABEL          declared class/property without rdfs:label
  WARN   AMBIGUOUS-DATE    start, end or award date with two or more values
  INFO   NO-PROVENANCE     ontology header missing provenance fields
  INFO   NO-VERSION        ontology header missing a version marker

The two INFO rules fire only when the graph declares an ontology
header node at all.

The catalog is data: ``RULES`` pairs each rule id and severity with a
generator of (focus, message) pairs. Rules read the graph's indexes
directly and share one types map, node -> its classes widened by their
subclass closures, so inference never copies the graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum

from .namespaces import DC, DCTERMS, EPO, OWL, RDFS, TRO
from .rdf_core import RDF_LANG_STRING, RDF_TYPE, XSD_STRING, BlankNode, Graph, Iri, Literal, Term
from .util import DATE_SUFFIX, xsd_dates
from .vocab import Vocabulary

_PROVENANCE_PROPS = (DC.contributor, DCTERMS.created, DCTERMS.modified, DC.date)
_DECLARED_KINDS = (OWL.Class, OWL.ObjectProperty, OWL.DatatypeProperty, OWL.AnnotationProperty)


class Severity(IntEnum):
    INFO = 10
    WARN = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class ReportEntry:
    severity: Severity
    rule_id: str
    focus: Term
    message: str


@dataclass(frozen=True)
class Report:
    entries: tuple[ReportEntry, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"error": 0, "warn": 0, "info": 0}
        for entry in self.entries:
            out[str(entry.severity).lower()] += 1
        return out

    def max_severity(self) -> Severity | None:
        return max((e.severity for e in self.entries), default=None)

    def to_text(self) -> str:
        return "\n".join(
            f"{e.severity} {e.rule_id} {e.focus} {e.message}" for e in self.entries
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "entries": [
                    {
                        "severity": str(e.severity),
                        "ruleId": e.rule_id,
                        "focus": e.focus,
                        "message": e.message,
                    }
                    for e in self.entries
                ],
                "counts": self.counts,
            },
            indent=2,
        )


def _types(graph: Graph, vocab: Vocabulary) -> dict[Iri | BlankNode, set[Iri]]:
    """Typed node -> its IRI classes and their superclasses; one pass is
    the fixpoint. A class outside the vocabulary stands for itself."""
    types: dict[Iri | BlankNode, set[Iri]] = {}
    for cls, nodes in graph._pos.get(RDF_TYPE, {}).items():
        if not isinstance(cls, Iri):
            continue
        widened = vocab._closures.get(cls, (cls,))
        for node in nodes:
            types.setdefault(node, set()).update(widened)
    return types


def _pairs(graph: Graph, types, prop: Iri):
    """(subject, object) of every ``prop`` triple, inferred typings included."""
    pairs = [(s, o) for o, subjects in graph._pos.get(prop, {}).items() for s in subjects]
    if prop == RDF_TYPE:
        pairs = set(pairs).union((s, c) for s, classes in types.items() for c in classes)
    return pairs


def _disjoint_clash(graph: Graph, types, vocab: Vocabulary):
    for constraint in vocab.disjointness_sets():
        for node, node_types in types.items():
            clash = node_types & constraint.classes
            if len(clash) >= 2:
                names = ", ".join(sorted(clash))
                yield node, f"typed as {names}, which are declared disjoint"


def _missing_required(graph: Graph, types, vocab: Vocabulary):
    for required in vocab.required_properties():
        for node, node_types in types.items():
            if required.on_class in node_types and required.prop not in graph._spo[node]:
                yield node, f"instance of {required.on_class} lacks required {required.prop}"


def _bad_range(graph: Graph, types, vocab: Vocabulary):
    for prange in vocab.property_ranges():
        prop, expected = prange.prop, prange.range
        # a literal's text ends in its datatype's suffix (exact: an IRI holds no '"'), or in "@tag"
        suffix = '"' if expected == XSD_STRING else '"^^' + expected
        tagged = expected == RDF_LANG_STRING
        for subject, obj in _pairs(graph, types, prop):
            if prange.range_kind == "datatype":
                if not isinstance(obj, Literal) or not (obj.endswith(suffix) or tagged and obj.language):
                    yield subject, f"value of {prop} is not a {expected} literal"
            elif isinstance(obj, Literal):
                yield subject, f"value of {prop} is a literal, expected a {expected}"
            elif obj in types and expected not in types[obj]:
                yield subject, f"value of {prop} is not typed {expected}"


def _bad_date(graph: Graph, types, vocab: Vocabulary):
    for pred, by_object in graph._pos.items():
        dated = [o for o in by_object if o.endswith(DATE_SUFFIX)]
        for obj, parsed in zip(dated, xsd_dates(dated)):
            if parsed is None:
                for subject in by_object[obj]:
                    yield subject, f"{pred} value {obj.lexical!r} is not a YYYY-MM-DD date"


def _interval_order(graph: Graph, types, vocab: Vocabulary):
    for node in graph.subjects(TRO.startDate):
        po = graph._spo[node]
        starts = [d for d in xsd_dates(po[TRO.startDate]) if d is not None]
        ends = [d for d in xsd_dates(po.get(TRO.endDate, ())) if d is not None]
        if any(end < start for start in starts for end in ends):
            yield node, "end date precedes start date"


def _unknown_term(graph: Graph, types, vocab: Vocabulary):
    used = set(graph._pos).union(o for o in graph._pos.get(RDF_TYPE, {}) if isinstance(o, Iri))
    for iri in used:
        if iri.value.startswith(TRO.base) and iri not in vocab.terms:
            yield iri, "not defined by the vocabulary"


def _no_label(graph: Graph, types, vocab: Vocabulary):
    for node, node_types in types.items():
        if node_types.intersection(_DECLARED_KINDS) and RDFS.label not in graph._spo[node]:
            yield node, "declared term has no rdfs:label"


def _ambiguous_date(graph: Graph, types, vocab: Vocabulary):
    for prop in (TRO.startDate, TRO.endDate, EPO.awardDate):  # the dates detection reads
        for node in graph.subjects(prop):
            if (count := len(graph._spo[node][prop])) > 1:
                yield node, f"{count} values of {prop}: detection skips the node"


def _no_provenance(graph: Graph, types, vocab: Vocabulary):
    for node, node_types in types.items():
        if OWL.Ontology in node_types:
            missing = [p for p in _PROVENANCE_PROPS if p not in graph._spo[node]]
            if missing:
                yield node, f"header lacks {', '.join(missing)}"


def _no_version(graph: Graph, types, vocab: Vocabulary):
    for node, node_types in types.items():
        if OWL.Ontology in node_types and OWL.versionInfo not in graph._spo[node]:
            yield node, "header lacks owl:versionInfo"


RULES = (
    ("DISJOINT-CLASH", Severity.ERROR, _disjoint_clash),
    ("MISSING-REQUIRED", Severity.ERROR, _missing_required),
    ("BAD-RANGE", Severity.ERROR, _bad_range),
    ("BAD-DATE", Severity.ERROR, _bad_date),
    ("INTERVAL-ORDER", Severity.ERROR, _interval_order),
    ("UNKNOWN-TERM", Severity.WARN, _unknown_term),
    ("NO-LABEL", Severity.WARN, _no_label),
    ("AMBIGUOUS-DATE", Severity.WARN, _ambiguous_date),
    ("NO-PROVENANCE", Severity.INFO, _no_provenance),
    ("NO-VERSION", Severity.INFO, _no_version),
)


def check(graph: Graph, vocab: Vocabulary) -> Report:
    """Run the full rule catalog; deterministic entry order."""
    types = _types(graph, vocab)
    entries = [
        ReportEntry(severity, rule_id, focus, message)
        for rule_id, severity, rule in RULES
        for focus, message in rule(graph, types, vocab)
    ]
    entries.sort(key=lambda e: (e.rule_id, e.focus, e.message))
    return Report(tuple(entries))
