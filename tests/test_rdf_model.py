"""Terms, triples, and the indexed graph."""

import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import BlankNode, Graph, Iri, Literal, Triple, canonical_ntriples, parse_turtle, serialize_turtle
from trokit.rdf_core import RDF_LANG_STRING, RDF_TYPE, XSD_INTEGER, XSD_STRING

from conftest import all_triples, graph_of, random_graph, random_term

SCHEMA_PERSON = Iri("http://schema.org/Person")
NAME = Iri("http://schema.org/name")
A_NODE = Iri("http://example.org/a")


def linear_scan(graph, s, p, o):
    """Index-free oracle for match(): every triple read off the SPO index, filtered."""
    return sorted(
        (
            t
            for t in all_triples(graph)
            if (s is None or t.subject == s)
            and (p is None or t.predicate == p)
            and (o is None or t.object == o)
        ),
        key=Triple.sort_key,
    )


def column(triples, position):
    """Index-free oracle for subjects() and objects()."""
    return sorted({getattr(t, position) for t in triples}, key=lambda term: term.n3())


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValueError):
            Iri("no-scheme-here/path")
        with pytest.raises(ValueError):
            Iri("")
        with pytest.raises(ValueError):
            Iri("http://bad value.example/")

    @pytest.mark.parametrize("ch", list('<>"{}|^`\\') + [" ", "\x00", "\t", "\n", "\x1f", "\ud800", "\udfff"])
    def test_iri_rejects_iriref_excluded_characters(self, ch):
        with pytest.raises(ValueError, match="disallowed character"):
            Iri(f"http://example.org/a{ch}b")

    def test_iri_accepts_percent_encoding_and_non_ascii(self):
        for value in ("http://example.org/a%22b", "http://example.org/caf\u00e9", "http://example.org/a\u00a0b", "urn:x:~!$&'()*+,;=@"):
            assert Iri(value).n3() == f"<{value}>"

    def test_literal_defaults_to_string(self):
        assert Literal("x").datatype == XSD_STRING
        assert Literal("x").language is None

    def test_language_forces_langstring_and_lowercases(self):
        lit = Literal("hello", language="EN-us")
        assert lit.language == "en-us"
        assert lit.datatype == RDF_LANG_STRING

    def test_langstring_without_language_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", RDF_LANG_STRING)

    def test_language_with_other_datatype_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", XSD_INTEGER, language="en")

    @pytest.mark.parametrize("lexical", ["x\ud800y", "\udc00", "\U0001f9a9\udfff"])
    def test_literal_rejects_lone_surrogates(self, lexical):
        with pytest.raises(ValueError, match="lone surrogate"):
            Literal(lexical)
        with pytest.raises(ValueError, match="lone surrogate"):
            Literal(lexical, language="en")

    def test_literal_comparison_is_lexical(self):
        assert Literal("1", XSD_INTEGER) != Literal("01", XSD_INTEGER)

    def test_blank_node_label_charset(self):
        assert BlankNode("b1").n3() == "_:b1"
        with pytest.raises(ValueError):
            BlankNode("bad label")

    def test_triple_positions_enforced(self):
        lit = Literal("x")
        with pytest.raises(ValueError):
            Triple(lit, NAME, lit)
        with pytest.raises(ValueError):
            Triple(A_NODE, BlankNode("b"), lit)

    def test_n3_escapes(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'
        assert Literal("\x01").n3() == '"\\u0001"'

    @pytest.mark.parametrize(
        "char, escaped",
        [
            ("\b", "\\b"),
            ("\t", "\\t"),
            ("\n", "\\n"),
            ("\f", "\\f"),
            ("\r", "\\r"),
            ('"', '\\"'),
            ("\\", "\\\\"),
            ("\x00", "\\u0000"),
            ("\x0b", "\\u000B"),
            ("\x1f", "\\u001F"),
            ("\x7f", "\\u007F"),
            ("\x80", "\x80"),
            ("'", "'"),
            ("ñ", "ñ"),
            ("\U0001f9a9", "\U0001f9a9"),
        ],
    )
    def test_n3_uses_canonical_escapes(self, char, escaped):
        """RDF 1.2 canonical N-Triples: ECHAR where one exists, upper-case UCHAR for other controls and DEL."""
        assert Literal(f"a{char}b").n3() == f'"a{escaped}b"'
        assert Literal(char, language="en").n3() == f'"{escaped}"@en'

    def test_canonical_escapes_round_trip(self):
        text = "".join(chr(c) for c in range(0x20)) + '"\\\x7f\x80 end'
        g = Graph({"ex": Iri("http://example.org/")})
        g.insert(Triple(A_NODE, NAME, Literal(text)))
        nt = canonical_ntriples(g)
        assert nt == (
            '<http://example.org/a> <http://schema.org/name> "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005'
            '\\u0006\\u0007\\b\\t\\n\\u000B\\f\\r\\u000E\\u000F\\u0010\\u0011\\u0012\\u0013\\u0014'
            '\\u0015\\u0016\\u0017\\u0018\\u0019\\u001A\\u001B\\u001C\\u001D\\u001E\\u001F\\"\\\\\\u007F\x80 end" .\n'
        )
        assert canonical_ntriples(parse_turtle(nt)) == nt
        assert canonical_ntriples(parse_turtle(serialize_turtle(g))) == nt


class TestGraph:
    def test_insert_reports_novelty(self):
        g = Graph()
        t = Triple(A_NODE, RDF_TYPE, SCHEMA_PERSON)
        assert g.insert(t) is True
        assert len(g) == 1
        assert g.insert(t) is False
        assert len(g) == 1

    def test_match_after_two_inserts(self):
        g = Graph()
        g.insert(Triple(A_NODE, RDF_TYPE, SCHEMA_PERSON))
        g.insert(Triple(A_NODE, NAME, Literal("Ana")))
        assert len(g.match(A_NODE, None, None)) == 2

    def test_empty_graph_matches_nothing(self):
        g = Graph()
        assert len(g) == 0 and list(g) == []
        assert g.match() == g.match(A_NODE, NAME, Literal("Ana")) == g.match(None, None, A_NODE) == []

    def test_match_all_patterns_against_linear_scan(self):
        rng = random.Random(7)
        a, b = Iri("http://example.org/a"), Iri("http://example.org/b")
        shared = Literal("shared")
        for _ in range(30):
            g = random_graph(rng, max_triples=40)
            # a random share of g's triples, in random order, plus one object under two predicates and two subjects
            triples = sorted(all_triples(g), key=Triple.sort_key)
            shares = [Triple(s, p, shared) for s in (a, b) for p in (a, b)]
            mixed = graph_of(rng.sample(triples, k=round(rng.random() * len(triples))) + shares)
            assert len(mixed) == len(all_triples(mixed))
            terms = [None, a, b, random_term(rng), shared]
            for graph in (g, mixed):
                for s in terms:
                    if isinstance(s, Literal):
                        continue
                    for p in [None, a, b]:
                        for o in terms:
                            assert graph.match(s, p, o) == linear_scan(graph, s, p, o)
                            # the one-column reads: distinct, sorted by n3()
                            assert graph.subjects(p, o) == column(linear_scan(graph, None, p, o), "subject")
                        assert graph.objects(s, p) == column(linear_scan(graph, s, p, None), "object")
                        if s is not None and p is not None:
                            objs = column(linear_scan(graph, s, p, None), "object")
                            assert graph.value(s, p) == (objs[0] if len(objs) == 1 else None)

    def test_match_results_sorted(self):
        rng = random.Random(11)
        g = random_graph(rng, max_triples=60)
        result = g.match(None, None, None)
        assert result == sorted(result, key=Triple.sort_key)

    def test_iteration_is_deterministic(self):
        rng = random.Random(3)
        g = random_graph(rng, max_triples=30)
        assert list(g) == list(g)
        assert list(g) == g.match(None, None, None)

    def test_value_absent_and_ambiguous(self):
        g = Graph()
        assert g.value(A_NODE, NAME) is None
        g.insert(Triple(A_NODE, NAME, Literal("Ana")))
        assert g.value(A_NODE, NAME) == Literal("Ana")
        g.insert(Triple(A_NODE, NAME, Literal("Bea")))
        assert g.value(A_NODE, NAME) is None

    @given(st.lists(st.sampled_from("abc"), min_size=0, max_size=12))
    def test_insert_remove_size_invariant(self, ops):
        # alternating inserts of a tiny triple universe keep size == set size
        g = Graph()
        shadow = set()
        for name in ops:
            t = Triple(A_NODE, NAME, Literal(name))
            assert g.insert(t) == (t not in shadow)
            shadow.add(t)
        assert len(g) == len(shadow)
        assert set(g) == shadow


def leaves(graph):
    """Every leaf of both indexes: each ``_spo[s][p]`` and each ``_pos[p][o]``."""
    return [leaf for index in (graph._spo, graph._pos) for inner in index.values() for leaf in inner.values()]


class TestLeafShape:
    """A leaf that holds one term is the 1-tuple of it; a second distinct term makes it a set."""

    B_NODE = Iri("http://example.org/b")

    def test_a_second_distinct_term_turns_a_one_tuple_into_a_set(self):
        g = Graph()
        ana, bea, cy = Literal("Ana"), Literal("Bea"), Literal("Cy")
        assert g.insert(Triple(A_NODE, NAME, ana))
        assert g._spo[A_NODE][NAME] == (ana,) and g._pos[NAME][ana] == (A_NODE,)
        assert g.insert(Triple(A_NODE, NAME, bea))  # a second object: _spo's leaf grows
        assert g._spo[A_NODE][NAME] == {ana, bea} and g._pos[NAME][bea] == (A_NODE,)
        assert g.insert(Triple(self.B_NODE, NAME, ana))  # a second subject: _pos's leaf grows
        assert g._pos[NAME][ana] == {A_NODE, self.B_NODE} and g._spo[self.B_NODE][NAME] == (ana,)
        assert g.insert(Triple(A_NODE, NAME, cy))  # a third object: the set takes it
        assert g._spo[A_NODE][NAME] == {ana, bea, cy}
        before = leaves(g)
        contents = [set(leaf) for leaf in before]
        for t in list(g):
            assert g.insert(t) is False
        assert len(g) == 4
        assert all(now is then for now, then in zip(leaves(g), before, strict=True))
        assert [set(leaf) for leaf in leaves(g)] == contents

    def test_reads_on_single_and_multi_valued_leaves(self):
        g = Graph()
        ana, bea = Literal("Ana"), Literal("Bea")
        single, multi = Triple(A_NODE, NAME, ana), [Triple(self.B_NODE, NAME, ana), Triple(self.B_NODE, NAME, bea)]
        for t in [single, *multi]:
            g.insert(t)
        assert type(g._spo[A_NODE][NAME]) is tuple and type(g._spo[self.B_NODE][NAME]) is set
        assert type(g._pos[NAME][bea]) is tuple and type(g._pos[NAME][ana]) is set
        assert g.value(A_NODE, NAME) == ana and g.value(self.B_NODE, NAME) is None
        assert g.objects(A_NODE, NAME) == [ana] and g.objects(self.B_NODE, NAME) == [ana, bea]
        assert g.objects(None, NAME) == [ana, bea]
        assert g.subjects(NAME, bea) == [self.B_NODE] and g.subjects(NAME, ana) == [A_NODE, self.B_NODE]
        assert g.match(A_NODE, NAME, None) == [single] and g.match(self.B_NODE, NAME, None) == multi
        assert g.match(None, NAME, ana) == [single, multi[0]] and g.match(None, None, bea) == [multi[1]]
        assert all(t in g for t in [single, *multi])
        assert Triple(A_NODE, NAME, bea) not in g and Triple(self.B_NODE, NAME, Literal("Cy")) not in g

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=40))
    def test_reads_match_a_set_of_triples(self, picks):
        terms = [Iri(f"http://example.org/t{i}") for i in range(4)]
        g, reference = Graph(), set()
        for s, p, o in picks:
            t = Triple(terms[s], terms[p], terms[o])
            assert g.insert(t) == (t not in reference)
            reference.add(t)
        assert len(g) == len(reference)
        ordered = sorted(reference, key=Triple.sort_key)
        for s, p, o in itertools.product([None, *terms], repeat=3):
            expected = [t for t in ordered if s in (None, t.subject) and p in (None, t.predicate) and o in (None, t.object)]
            assert g.match(s, p, o) == expected
            if None not in (s, p, o):
                assert (Triple(s, p, o) in g) == bool(expected)
        for term in terms:
            assert g.subjects(term) == sorted({t.subject for t in reference if t.predicate == term})
            assert g.objects(term) == sorted({t.object for t in reference if t.subject == term})
        assert all((type(leaf) is tuple and len(leaf) == 1) or (type(leaf) is set and len(leaf) >= 2) for leaf in leaves(g))

    def test_single_valued_triples_cost_at_most_300_bytes_in_the_indexes(self):
        subjects = [Iri(f"http://example.org/s{i}") for i in range(2000)]
        predicates = [Iri(f"http://example.org/p{j}") for j in range(5)]
        triples = [Triple(s, p, Literal(f"{s.value} {p.value}")) for s in subjects for p in predicates]
        g = Graph()
        gc.collect()
        tracemalloc.start()
        try:
            for t in triples:
                g.insert(t)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g) == 10_000
        assert all(type(leaf) is tuple for leaf in leaves(g))
        assert held / len(g) <= 300


class TestCanonicalNTriples:
    def test_empty(self):
        assert canonical_ntriples(Graph()) == ""

    def test_order_invariance(self):
        rng = random.Random(5)
        g = random_graph(rng, max_triples=50)
        triples = list(g)
        rng.shuffle(triples)
        h = Graph()
        for t in triples:
            h.insert(t)
        assert canonical_ntriples(g) == canonical_ntriples(h)

    def test_blank_nodes_rejected(self):
        for triple in (Triple(BlankNode("b"), NAME, Literal("x")), Triple(A_NODE, NAME, BlankNode("b"))):
            g = Graph()
            g.insert(triple)
            with pytest.raises(ValueError):
                canonical_ntriples(g)

    def test_lines_sorted_bytewise(self):
        rng = random.Random(9)
        g = random_graph(rng, max_triples=50)
        beyond_ascii = ["z", "\u00e9", "\ue000", "\uffff", "\U00010000"]
        for text in reversed(beyond_ascii):
            g.insert(Triple(A_NODE, NAME, Literal(text)))
        lines = canonical_ntriples(g).splitlines()
        assert lines == sorted(lines, key=lambda s: s.encode("utf-8"))
        prefix = f"{A_NODE.n3()} {NAME.n3()} "
        assert [line for line in lines if line.startswith(prefix)] == [
            f'{prefix}"{text}" .' for text in beyond_ascii
        ]
