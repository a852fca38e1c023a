"""Differential oracle for validate.check.

``reference_check`` is the earlier, straightforward rule catalog: it
copies the graph, adds the superclass typings from closures computed
naively from ``subclass_edges()``, and answers every rule through the
public ``match`` / ``subjects`` / ``objects`` API and iteration. ``check`` reads the graph's indexes instead; both must produce the
same report bytes on random graphs under random subclass hierarchies.
"""

from __future__ import annotations

import random
from collections import Counter

from trokit import (
    BlankNode,
    Disjointness,
    Iri,
    Literal,
    PropertyRange,
    RequiredProperty,
    SubClassOf,
    TermKind,
    Triple,
    VocabTerm,
    Vocabulary,
    builtin_vocabulary,
    check,
)
from trokit.namespaces import DC, DCTERMS, EPO, GIST, OWL, RDFS, SCHEMA, TRO, XSD
from trokit.rdf_core import RDF_LANG_STRING, RDF_TYPE, XSD_DATE, Graph
from trokit.util import parse_iso_date
from trokit.validate import Report, ReportEntry, Severity

from conftest import all_triples, graph_of, naive_closures

_PROVENANCE_PROPS = (DC.contributor, DCTERMS.created, DCTERMS.modified, DC.date)
_DECLARED_KINDS = (OWL.Class, OWL.ObjectProperty, OWL.DatatypeProperty, OWL.AnnotationProperty)


def reference_infer_types(graph: Graph, vocab: Vocabulary) -> Graph:
    supertypes = {cls: closure - {cls} for cls, closure in naive_closures(vocab).items()}
    out = graph_of(all_triples(graph))
    for triple in graph.match(None, RDF_TYPE, None):
        for sup in supertypes.get(triple.object, ()):
            out.insert(Triple(triple.subject, RDF_TYPE, sup))
    return out


def reference_check(graph: Graph, vocab: Vocabulary) -> Report:
    g = reference_infer_types(graph, vocab)
    types: dict = {}
    for triple in g.match(None, RDF_TYPE, None):
        if isinstance(triple.object, Iri):
            types.setdefault(triple.subject, set()).add(triple.object)
    entries: list[ReportEntry] = []

    def report(severity, rule, focus, message):
        entries.append(ReportEntry(severity, rule, focus, message))

    def date_values(node, prop):
        values = []
        for obj in g.objects(node, prop):
            if isinstance(obj, Literal) and obj.datatype == XSD_DATE:
                parsed = parse_iso_date(obj.lexical)
                if parsed is not None:
                    values.append(parsed)
        return values

    def unknown_tro_term(iri):
        return iri.value.startswith(TRO.base) and iri not in vocab.terms

    for constraint in vocab.disjointness_sets():
        for node, node_types in types.items():
            clash = node_types & constraint.classes
            if len(clash) >= 2:
                names = ", ".join(sorted(c.n3() for c in clash))
                report(Severity.ERROR, "DISJOINT-CLASH", node, f"typed as {names}, which are declared disjoint")

    for required in vocab.required_properties():
        for node, node_types in types.items():
            if required.on_class in node_types and not g.match(node, required.prop, None):
                report(
                    Severity.ERROR,
                    "MISSING-REQUIRED",
                    node,
                    f"instance of {required.on_class.n3()} lacks required {required.prop.n3()}",
                )

    for prange in vocab.property_ranges():
        for triple in g.match(None, prange.prop, None):
            obj = triple.object
            if prange.range_kind == "datatype":
                if not isinstance(obj, Literal) or obj.datatype != prange.range:
                    report(
                        Severity.ERROR,
                        "BAD-RANGE",
                        triple.subject,
                        f"value of {prange.prop.n3()} is not a {prange.range.n3()} literal",
                    )
            elif isinstance(obj, Literal):
                report(
                    Severity.ERROR,
                    "BAD-RANGE",
                    triple.subject,
                    f"value of {prange.prop.n3()} is a literal, expected a {prange.range.n3()}",
                )
            elif obj in types and prange.range not in types[obj]:
                report(
                    Severity.ERROR,
                    "BAD-RANGE",
                    triple.subject,
                    f"value of {prange.prop.n3()} is not typed {prange.range.n3()}",
                )

    for triple in g:
        obj = triple.object
        if isinstance(obj, Literal) and obj.datatype == XSD_DATE and parse_iso_date(obj.lexical) is None:
            report(
                Severity.ERROR,
                "BAD-DATE",
                triple.subject,
                f"{triple.predicate.n3()} value {obj.lexical!r} is not a YYYY-MM-DD date",
            )

    for node in g.subjects(TRO.startDate, None):
        starts = date_values(node, TRO.startDate)
        ends = date_values(node, TRO.endDate)
        if any(end < start for start in starts for end in ends):
            report(Severity.ERROR, "INTERVAL-ORDER", node, "end date precedes start date")

    unknown = set()
    for triple in g:
        if unknown_tro_term(triple.predicate):
            unknown.add(triple.predicate)
        if triple.predicate == RDF_TYPE and isinstance(triple.object, Iri) and unknown_tro_term(triple.object):
            unknown.add(triple.object)
    for iri in unknown:
        report(Severity.WARN, "UNKNOWN-TERM", iri, "not defined by the vocabulary")

    for node, node_types in types.items():
        if node_types.intersection(_DECLARED_KINDS) and not g.match(node, RDFS.label, None):
            report(Severity.WARN, "NO-LABEL", node, "declared term has no rdfs:label")

    for prop in (TRO.startDate, TRO.endDate, EPO.awardDate):
        for node in g.subjects(prop, None):
            values = g.objects(node, prop)
            if len(values) > 1:
                report(
                    Severity.WARN,
                    "AMBIGUOUS-DATE",
                    node,
                    f"{len(values)} values of {prop.n3()}: detection skips the node",
                )

    for node in g.subjects(RDF_TYPE, OWL.Ontology):
        missing = [p for p in _PROVENANCE_PROPS if not g.match(node, p, None)]
        if missing:
            names = ", ".join(p.n3() for p in missing)
            report(Severity.INFO, "NO-PROVENANCE", node, f"header lacks {names}")
        if not g.match(node, OWL.versionInfo, None):
            report(Severity.INFO, "NO-VERSION", node, "header lacks owl:versionInfo")

    entries.sort(key=lambda e: (e.rule_id, e.focus.n3(), e.message))
    return Report(tuple(entries))


BUILTIN = builtin_vocabulary()
K = [TRO[f"K{i}"] for i in range(5)]
_BUILTIN_CLASSES = [t.iri for t in BUILTIN.classes()]
_DATES = ["2019-01-01", "2019-06-30", "2020-02-29", "2021-12-31", "2020-02-30", "2020-1-1", "soon"]
_NODES = [Iri(f"http://example.org/n{i}") for i in range(6)] + [BlankNode(f"b{i}") for i in range(3)]
_PROPS = [
    TRO.roleOf, TRO.roleIn, TRO.hasEvidence, TRO.evidenceURL, TRO.startDate, TRO.endDate,
    EPO.awardedBy, EPO.awardDate, SCHEMA.name, RDFS.label, OWL.versionInfo, *_PROVENANCE_PROPS,
    TRO.undefinedProp, Iri("http://elsewhere.org/p"),
]
_TYPES = [
    *K, *_BUILTIN_CLASSES, *_DECLARED_KINDS, OWL.Ontology,
    TRO.UndefinedClass, Iri("http://elsewhere.org/Thing"),
]


def random_vocabulary(rng: random.Random) -> Vocabulary:
    """The built-in vocabulary plus classes K0..K4 under random SubClassOf chains.

    Edges run from Ki to a later Kj or to a built-in class, so the
    hierarchy is acyclic; owl:Ontology is sometimes a registered class
    with a K beneath it, and rdf:type sometimes carries a range.
    """
    terms = dict(BUILTIN.terms)
    terms.update((k, VocabTerm(k, TermKind.CLASS, k.value[-2:], "a test class")) for k in K)
    constraints = list(BUILTIN.constraints)
    for i, k in enumerate(K):
        for sup in rng.sample(K[i + 1 :] + _BUILTIN_CLASSES, rng.randrange(3)):
            constraints.append(SubClassOf(k, sup))
    if rng.random() < 0.3:
        terms[OWL.Ontology] = VocabTerm(OWL.Ontology, TermKind.CLASS, "Ontology", "a header")
        constraints.append(SubClassOf(rng.choice(K), OWL.Ontology))
    if rng.random() < 0.3:
        constraints.append(RequiredProperty(rng.choice(K), rng.choice([SCHEMA.name, TRO.startDate])))
    if rng.random() < 0.3:
        constraints.append(Disjointness(frozenset(rng.sample(K, 2))))
    if rng.random() < 0.2:
        terms[RDF_TYPE] = VocabTerm(RDF_TYPE, TermKind.OBJECT_PROPERTY, "type", "typing")
        if rng.random() < 0.5:
            constraints.append(PropertyRange(RDF_TYPE, XSD.string, "datatype"))
        else:
            constraints.append(PropertyRange(RDF_TYPE, rng.choice(K), "class"))
    return Vocabulary(terms=terms, constraints=tuple(constraints))


def _date(rng: random.Random) -> Literal:
    return Literal(rng.choice(_DATES), XSD_DATE)


def random_check_graph(rng: random.Random) -> Graph:
    """Typed nodes (IRIs and blank nodes) with malformed and repeated
    dates, start/end pairs in both orders, ontology headers, disjoint
    typings and terms the vocabulary does not define."""
    g = Graph()
    for _ in range(rng.randrange(1, 12)):
        node = rng.choice(_NODES)
        g.insert(Triple(node, RDF_TYPE, rng.choice(_TYPES)))
    if rng.random() < 0.1:
        g.insert(Triple(rng.choice(_NODES), RDF_TYPE, rng.choice([Literal("Person"), BlankNode("t")])))
    for _ in range(rng.randrange(20)):
        node, prop = rng.choice(_NODES), rng.choice(_PROPS)
        roll = rng.random()
        if roll < 0.4:
            obj = rng.choice(_NODES)
        elif roll < 0.7:
            obj = _date(rng)
        elif roll < 0.9:
            obj = Literal(rng.choice(["x", "2019-01-01", "12"]))
        else:
            obj = Literal("12", XSD.decimal)
        g.insert(Triple(node, prop, obj))
    for _ in range(rng.randrange(3)):
        node = rng.choice(_NODES)
        g.insert(Triple(node, TRO.startDate, _date(rng)))
        g.insert(Triple(node, TRO.endDate, _date(rng)))
    return g


def test_check_matches_reference_on_random_graphs():
    fired: Counter = Counter()
    for seed in range(2000):
        rng = random.Random(seed)
        vocab = random_vocabulary(rng)
        graph = random_check_graph(rng)
        report = check(graph, vocab)
        assert report.to_json() == reference_check(graph, vocab).to_json(), seed
        fired.update({e.rule_id for e in report.entries})
    rules = (
        "DISJOINT-CLASH MISSING-REQUIRED BAD-RANGE BAD-DATE INTERVAL-ORDER "
        "UNKNOWN-TERM NO-LABEL AMBIGUOUS-DATE NO-PROVENANCE NO-VERSION"
    ).split()
    assert set(fired) == set(rules)
    assert all(fired[rule] >= 20 for rule in rules), fired


def test_check_sees_inferred_typings():
    k, node = TRO.K0, Iri("http://example.org/k")
    terms = dict(BUILTIN.terms)
    terms[k] = VocabTerm(k, TermKind.CLASS, "K", "a person class")
    vocab = Vocabulary(terms=terms, constraints=BUILTIN.constraints + (SubClassOf(k, SCHEMA.Person),))
    g = Graph()
    g.insert(Triple(node, RDF_TYPE, k))
    g.insert(Triple(node, RDF_TYPE, GIST.Organization))
    entries = [(e.rule_id, e.focus, e.message) for e in check(g, vocab).entries]
    assert entries == [
        (
            "DISJOINT-CLASH",
            node,
            f"typed as {SCHEMA.Person.n3()}, {GIST.Organization.n3()}, which are declared disjoint",
        ),
        (
            "MISSING-REQUIRED",
            node,
            f"instance of {SCHEMA.Person.n3()} lacks required {SCHEMA.name.n3()}",
        ),
    ]
    assert check(g, vocab).to_json() == reference_check(g, vocab).to_json()


def test_bad_range_reads_each_datatype_exactly():
    """A datatype range holds exactly the literals whose datatype is the range, whatever their text."""
    date_suffix = '"^^' + XSD_DATE
    ranges = [XSD.string, XSD.date, XSD.decimal, RDF_LANG_STRING, Iri("http://example.org/dt")]
    props = [Iri(f"http://example.org/p{i}") for i in range(len(ranges))]
    terms = dict(BUILTIN.terms)
    terms.update((p, VocabTerm(p, TermKind.DATA_PROPERTY, "p", "a property")) for p in props)
    vocab = Vocabulary(
        terms=terms,
        constraints=BUILTIN.constraints + tuple(PropertyRange(p, r, "datatype") for p, r in zip(props, ranges)),
    )
    values = [
        Literal("x"),
        Literal("x", language="en"),
        Literal("2019-01-01", XSD_DATE),
        Literal("12", XSD.decimal),
        Literal("x", ranges[-1]),
        Literal("a" + date_suffix),  # a string whose text holds a date literal's suffix
        Literal('ends in a quote"'),
        Literal('"', language="en"),
        Iri("http://example.org/x"),
        BlankNode("b0"),
    ]
    g = Graph()
    for i, value in enumerate(values):
        for prop in props:
            g.insert(Triple(Iri(f"http://example.org/n{i}"), prop, value))
    report = check(g, vocab)
    bad = Counter(e.message for e in report.entries if e.rule_id == "BAD-RANGE")
    for prop, expected in zip(props, ranges):
        typed = [v for v in values if isinstance(v, Literal) and v.datatype == expected]
        assert bad[f"value of {prop} is not a {expected} literal"] == len(values) - len(typed) > 0
    assert report.to_json() == reference_check(g, vocab).to_json()
