"""Constraint checking: rule catalog, severities, inference.

Inference is the types map ``check`` reads: ``inferred`` (conftest) is
the graph plus a typing for each class that map gives a node.
"""

import json
import random

import pytest

from trokit import (
    Iri,
    Report,
    ReportEntry,
    Severity,
    SubClassOf,
    TermKind,
    Triple,
    VocabTerm,
    Vocabulary,
    build_graph,
    builtin_vocabulary,
    canonical_ntriples,
    check,
    parse_contract_csv,
    parse_role_csv,
    parse_turtle,
)
from trokit.namespaces import GIST, SCHEMA
from trokit.rdf_core import RDF_TYPE, Graph

from conftest import FIXTURES, all_triples, graph_of, inferred

VOCAB = builtin_vocabulary()

C = [Iri(f"http://example.org/C{i}") for i in range(10)]
S = [Iri(f"http://example.org/s{i}") for i in range(10)]
FOREIGN = Iri("http://elsewhere.org/Thing")


def class_vocab(edges):
    iris = {i for pair in edges for i in pair} | set(C)
    terms = {i: VocabTerm(i, TermKind.CLASS, i.value[-2:], "a test class") for i in iris}
    return Vocabulary(terms=terms, constraints=tuple(SubClassOf(a, b) for a, b in edges))


def naive_fixpoint(graph: Graph, vocab: Vocabulary) -> set:
    """Reference inference: add one superclass step until nothing changes."""
    triples = all_triples(graph)
    edges = [(c.sub, c.sup) for c in vocab.constraints if isinstance(c, SubClassOf)]
    changed = True
    while changed:
        changed = False
        for t in list(triples):
            if t.predicate != RDF_TYPE:
                continue
            for sub, sup in edges:
                if t.object == sub:
                    new = Triple(t.subject, RDF_TYPE, sup)
                    if new not in triples:
                        triples.add(new)
                        changed = True
    return triples


def load_violation(name: str) -> Graph:
    text = (FIXTURES / "violations" / name).read_text(encoding="utf-8")
    return parse_turtle(text)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARN < Severity.ERROR

    def test_str(self):
        assert str(Severity.WARN) == "WARN"

    def test_max_severity(self):
        def entry(sev):
            return ReportEntry(sev, "X", Iri("http://example.org/n"), "m")

        assert Report(()).max_severity() is None
        assert Report((entry(Severity.WARN), entry(Severity.INFO))).max_severity() == Severity.WARN
        triple = (entry(Severity.INFO), entry(Severity.ERROR), entry(Severity.WARN))
        assert Report(triple).max_severity() == Severity.ERROR

    def test_counts(self):
        report = Report(
            (
                ReportEntry(Severity.ERROR, "X", S[0], "m"),
                ReportEntry(Severity.ERROR, "Y", S[1], "m"),
                ReportEntry(Severity.INFO, "Z", S[2], "m"),
            )
        )
        assert report.counts == {"error": 2, "warn": 0, "info": 1}


class TestRuleCatalog:
    def test_empty_graph_is_clean(self):
        assert check(Graph(), VOCAB).entries == ()

    @pytest.mark.parametrize(
        "fixture, rule, severity, count",
        [
            ("disjoint_clash.ttl", "DISJOINT-CLASH", Severity.ERROR, 1),
            ("missing_required.ttl", "MISSING-REQUIRED", Severity.ERROR, 1),
            ("bad_range.ttl", "BAD-RANGE", Severity.ERROR, 1),
            ("bad_date.ttl", "BAD-DATE", Severity.ERROR, 1),
            ("interval_order.ttl", "INTERVAL-ORDER", Severity.ERROR, 1),
            ("unknown_term.ttl", "UNKNOWN-TERM", Severity.WARN, 2),
            ("no_label.ttl", "NO-LABEL", Severity.WARN, 1),
            ("ambiguous_date.ttl", "DETECTION-SKIP", Severity.WARN, 1),
            ("detection_skip.ttl", "DETECTION-SKIP", Severity.WARN, 3),
            ("no_provenance.ttl", "NO-PROVENANCE", Severity.INFO, 1),
            ("no_version.ttl", "NO-VERSION", Severity.INFO, 1),
        ],
    )
    def test_each_fixture_fires_exactly_its_rule(self, fixture, rule, severity, count):
        report = check(load_violation(fixture), VOCAB)
        assert [(e.rule_id, e.severity) for e in report.entries] == [(rule, severity)] * count

    def test_disjoint_clash_names_both_classes(self):
        from trokit import Literal

        g = Graph()
        node = Iri("http://example.org/janus")
        g.insert(Triple(node, RDF_TYPE, SCHEMA.Person))
        g.insert(Triple(node, RDF_TYPE, GIST.Organization))
        g.insert(Triple(node, SCHEMA.name, Literal("Janus")))
        clashes = [e for e in check(g, VOCAB).entries if e.rule_id == "DISJOINT-CLASH"]
        assert len(clashes) == 1
        assert clashes[0].focus == node
        assert "Person" in clashes[0].message and "Organization" in clashes[0].message

    def test_pipeline_graph_is_clean(self, contracts_csv, roles_csv):
        contracts, _ = parse_contract_csv(contracts_csv)
        roles, _ = parse_role_csv(roles_csv)
        report = check(build_graph(contracts, roles), VOCAB)
        assert report.entries == ()
        assert report.counts == {"error": 0, "warn": 0, "info": 0}

    def test_untyped_object_passes_class_range(self):
        from trokit.namespaces import TRO

        g = Graph()
        g.insert(Triple(S[0], TRO.roleIn, Iri("http://example.org/mystery")))
        rules = [e.rule_id for e in check(g, VOCAB).entries]
        assert "BAD-RANGE" not in rules

    def test_report_entries_sorted(self):
        fixtures = ("disjoint_clash.ttl", "unknown_term.ttl", "bad_date.ttl")
        g = graph_of(t for fixture in fixtures for t in load_violation(fixture))
        entries = check(g, VOCAB).entries
        keys = [(e.rule_id, e.focus.n3(), e.message) for e in entries]
        assert keys == sorted(keys)

    def test_to_json_round_trips(self):
        report = check(load_violation("unknown_term.ttl"), VOCAB)
        data = json.loads(report.to_json())
        assert len(data["entries"]) == 2
        assert data["counts"] == {"error": 0, "warn": 2, "info": 0}
        assert all(e["severity"] == "WARN" and e["ruleId"] == "UNKNOWN-TERM" for e in data["entries"])

    def test_to_text_lines(self):
        report = check(load_violation("disjoint_clash.ttl"), VOCAB)
        lines = report.to_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ERROR DISJOINT-CLASH ")


class TestInferTypes:
    def test_no_edges_no_change(self):
        g = Graph()
        g.insert(Triple(S[0], RDF_TYPE, SCHEMA.Person))
        assert inferred(g, VOCAB) == all_triples(g)

    def test_single_edge(self):
        v = class_vocab([(C[0], C[1])])
        g = Graph()
        g.insert(Triple(S[0], RDF_TYPE, C[0]))
        out = inferred(g, v)
        assert Triple(S[0], RDF_TYPE, C[1]) in out
        assert len(out) == 2

    def test_foreign_types_left_alone(self):
        v = class_vocab([(C[0], C[1])])
        g = Graph()
        g.insert(Triple(S[0], RDF_TYPE, FOREIGN))
        assert inferred(g, v) == all_triples(g)

    def test_input_not_mutated(self):
        v = class_vocab([(C[0], C[1])])
        g = Graph()
        g.insert(Triple(S[0], RDF_TYPE, C[0]))
        before = canonical_ntriples(g)
        inferred(g, v)
        assert canonical_ntriples(g) == before

    def test_idempotent(self):
        v = class_vocab([(C[0], C[1]), (C[1], C[2])])
        g = Graph()
        g.insert(Triple(S[0], RDF_TYPE, C[0]))
        once = inferred(g, v)
        assert inferred(graph_of(once), v) == once

    def test_matches_naive_fixpoint_on_random_hierarchies(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randrange(2, 10)
            edges = [
                (C[i], C[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.25
            ]
            v = class_vocab(edges)
            g = Graph()
            for _ in range(rng.randrange(1, 15)):
                subject = rng.choice(S)
                cls = rng.choice(C[:n] + [FOREIGN])
                g.insert(Triple(subject, RDF_TYPE, cls))
            if rng.random() < 0.5:
                g.insert(Triple(S[0], SCHEMA.name, C[0]))  # non-typing noise
            assert inferred(g, v) == naive_fixpoint(g, v)
