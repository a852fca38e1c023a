"""Vocabulary registry, subclass closures, ontology graph emission."""

import random

import pytest

from trokit import (
    Disjointness,
    Graph,
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
    canonical_ntriples,
    parse_turtle,
    serialize_turtle,
    vocabulary_graph,
)
from trokit.namespaces import EPO, GIST, OWL, SCHEMA, TRO, VANN
from trokit.rdf_core import RDF_TYPE
from trokit.validate import _types
from trokit.vocab import ONTOLOGY_IRI


def reachable(edges: dict, start) -> set:
    """Independent reachability oracle over raw SubClassOf edges."""
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def make_class(iri):
    return VocabTerm(iri, TermKind.CLASS, iri.value.rsplit("/", 1)[-1], "a test class")


def hierarchy_vocab(edges: list[tuple[Iri, Iri]], extra: list[Iri] = ()) -> Vocabulary:
    iris = {i for pair in edges for i in pair} | set(extra)
    return Vocabulary(
        terms={i: make_class(i) for i in iris},
        constraints=tuple(SubClassOf(a, b) for a, b in edges),
    )


C = [Iri(f"http://example.org/C{i}") for i in range(12)]


class TestBuiltinVocabulary:
    def test_upper_classes_and_origins(self):
        v = builtin_vocabulary()
        expected = {
            EPO.Contract: "epo",
            GIST.Organization: "gist",
            TRO.Evidence: "tro",
            SCHEMA.Person: "schema",
            TRO.Role: "tro",
            TRO.Commitment: "tro",
        }
        for iri, origin in expected.items():
            term = v.terms[iri]
            assert term.kind == TermKind.CLASS
            assert term.origin == origin

    def test_contract_definition_wording(self):
        v = builtin_vocabulary()
        assert v.terms[EPO.Contract].definition.startswith(
            "A voluntary, deliberate, and legally binding"
        )

    def test_single_disjointness_set_of_four(self):
        v = builtin_vocabulary()
        (d,) = v.disjointness_sets()
        assert d.classes == frozenset(
            {TRO.Commitment, GIST.Organization, TRO.Evidence, SCHEMA.Person}
        )

    def test_required_properties(self):
        v = builtin_vocabulary()
        required = {(r.on_class, r.prop) for r in v.required_properties()}
        assert (SCHEMA.Person, SCHEMA.name) in required
        assert (TRO.Evidence, TRO.evidenceURL) in required
        for prop in (TRO.roleOf, TRO.roleIn, TRO.startDate, TRO.hasEvidence):
            assert (TRO.Role, prop) in required

    def test_namespace_defaults(self):
        prefixes = vocabulary_graph(builtin_vocabulary()).prefixes
        assert prefixes["gist"] == Iri("https://ontologies.semanticarts.com/gist/")
        assert prefixes["tro"] == Iri("http://ehu.eus/tro#")
        for prefix in ("rdf", "rdfs", "owl", "xsd", "dcterms", "dc", "vann", "time", "dbo", "epo", "schema"):
            assert prefix in prefixes


class TestVocabularyInvariants:
    def test_constraints_must_reference_known_terms(self):
        with pytest.raises(ValueError):
            Vocabulary(
                terms={C[0]: make_class(C[0])},
                constraints=(SubClassOf(C[0], C[1]),),
            )

    def test_subclass_cycle_rejected(self):
        with pytest.raises(ValueError):
            hierarchy_vocab([(C[0], C[1]), (C[1], C[2]), (C[2], C[0])])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="subclass cycle"):
            hierarchy_vocab([(C[3], C[0]), (C[0], C[0])])

    def test_cycle_between_properties_rejected(self):
        # SubClassOf may name properties; a cycle through them is still a cycle
        p, q = C[0], C[1]
        terms = {i: VocabTerm(i, TermKind.OBJECT_PROPERTY, "p", "a property") for i in (p, q)}
        terms[C[2]] = make_class(C[2])
        with pytest.raises(ValueError, match="subclass cycle"):
            Vocabulary(terms=terms, constraints=(SubClassOf(C[2], p), SubClassOf(p, q), SubClassOf(q, p)))

    def test_equality_and_repr_ignore_the_closure_map(self):
        v = builtin_vocabulary()
        assert v == builtin_vocabulary()
        assert "_closures" not in repr(v)

    def test_disjointness_needs_two(self):
        with pytest.raises(ValueError):
            Disjointness(frozenset({C[0]}))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            VocabTerm(C[0], TermKind.CLASS, "", "def")

    def test_datatype_ranges_need_no_term(self):
        v = Vocabulary(
            terms={
                C[0]: make_class(C[0]),
                C[1]: VocabTerm(C[1], TermKind.DATA_PROPERTY, "p", "a property"),
            },
            constraints=(PropertyRange(C[1], Iri("http://www.w3.org/2001/XMLSchema#date"), "datatype"),),
        )
        assert v.property_ranges()[0].range_kind == "datatype"


class TestSubclassClosure:
    """``Vocabulary._closures``, each class's closure, which check widens every typing by."""

    def test_reflexive_when_no_superclass(self):
        v = hierarchy_vocab([], extra=[C[0]])
        assert v._closures[C[0]] == {C[0]}

    def test_transitive_chain(self):
        v = hierarchy_vocab([(C[0], C[1]), (C[1], C[2])])
        assert v._closures[C[0]] == {C[0], C[1], C[2]}

    def test_matches_reachability_oracle_on_builtin(self):
        v = builtin_vocabulary()
        edges = v.subclass_edges()
        assert set(v._closures) == {term.iri for term in v.classes()}
        for term in v.classes():
            assert v._closures[term.iri] == reachable(edges, term.iri)

    def test_matches_reachability_oracle_on_random_dags(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randrange(2, 10)
            nodes = C[:n]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            v = hierarchy_vocab(edges, extra=nodes)
            raw = v.subclass_edges()
            for node in nodes:
                assert v._closures[node] == reachable(raw, node)

    def test_returns_a_fresh_set(self):
        # each node of the types map gets its own set, so widening one leaves the closure as it was
        v = hierarchy_vocab([(C[0], C[1])])
        g = Graph()
        g.insert(Triple(C[9], RDF_TYPE, C[0]))
        _types(g, v)[C[9]].add(C[5])
        assert v._closures[C[0]] == {C[0], C[1]}
        assert _types(g, v) == {C[9]: {C[0], C[1]}}

    def test_class_below_a_property_reaches_it(self):
        prop = VocabTerm(C[1], TermKind.OBJECT_PROPERTY, "p", "a property")
        v = Vocabulary(terms={C[0]: make_class(C[0]), C[1]: prop}, constraints=(SubClassOf(C[0], C[1]),))
        assert v._closures[C[0]] == {C[0], C[1]}
        assert C[1] not in v._closures  # a property has no closure: a typing by it stands for itself

    def test_monotone_under_new_edges(self):
        v1 = hierarchy_vocab([(C[0], C[1])], extra=[C[2]])
        v2 = hierarchy_vocab([(C[0], C[1]), (C[1], C[2])])
        assert v1._closures[C[0]] <= v2._closures[C[0]]


class TestVocabularyGraph:
    def test_header(self):
        g = vocabulary_graph(builtin_vocabulary())
        assert g.match(ONTOLOGY_IRI, RDF_TYPE, OWL.Ontology)
        assert g.match(ONTOLOGY_IRI, VANN.preferredNamespacePrefix, Literal("tro"))
        assert g.match(ONTOLOGY_IRI, OWL.versionInfo, None)

    def test_subclass_edges(self):
        g = vocabulary_graph(hierarchy_vocab([(C[0], C[1])]))
        assert g.objects(C[0], Iri("http://www.w3.org/2000/01/rdf-schema#subClassOf")) == [C[1]]

    def test_pairwise_disjointness_expansion(self):
        g = vocabulary_graph(builtin_vocabulary())
        links = g.match(None, OWL.disjointWith, None)
        assert len(links) == 6  # C(4,2)
        pairs = {(t.subject, t.object) for t in links}
        assert all((b, a) not in pairs for a, b in pairs)

    def test_every_term_typed_labeled_commented(self):
        v = builtin_vocabulary()
        g = vocabulary_graph(v)
        kind_class = {
            TermKind.CLASS: OWL.Class,
            TermKind.OBJECT_PROPERTY: OWL.ObjectProperty,
            TermKind.DATA_PROPERTY: OWL.DatatypeProperty,
        }
        for term in v.terms.values():
            assert g.match(term.iri, RDF_TYPE, kind_class[term.kind])
            labels = g.objects(term.iri, Iri("http://www.w3.org/2000/01/rdf-schema#label"))
            assert labels == [Literal(term.label)]

    def test_round_trips_through_turtle(self):
        g = vocabulary_graph(builtin_vocabulary())
        reparsed = parse_turtle(serialize_turtle(g))
        assert canonical_ntriples(reparsed) == canonical_ntriples(g)

    def test_matches_packaged_fixture(self):
        from pathlib import Path

        import trokit

        fixture = Path(trokit.__file__).parent / "data" / "tro.ttl"
        g = vocabulary_graph(builtin_vocabulary())
        assert fixture.read_text(encoding="utf-8") == serialize_turtle(g)
