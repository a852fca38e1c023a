"""Turtle subset: parser, errors, serializer, round-trips."""

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import BlankNode, Graph, Iri, Literal, ParseError, Triple, canonical_ntriples, parse_turtle, serialize_turtle
from trokit.rdf_core import RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from trokit.rdf_core.ntriples import _ntriples_chunks
from trokit.rdf_core.turtle import _turtle_chunks

from conftest import graph_of, random_graph

EX = "http://example.org/"


def parse(text):
    return parse_turtle(text)


class TestParser:
    def test_single_triple_with_prefix(self):
        g = parse("@prefix tro: <http://ehu.eus/tro#> . tro:Role a <http://www.w3.org/2002/07/owl#Class> .")
        assert len(g) == 1
        assert g.prefixes == {"tro": Iri("http://ehu.eus/tro#")}
        (t,) = g
        assert t.subject == Iri("http://ehu.eus/tro#Role")
        assert t.predicate == RDF_TYPE
        assert t.object == Iri("http://www.w3.org/2002/07/owl#Class")

    def test_sparql_style_prefix(self):
        g = parse('PREFIX ex: <http://example.org/>\nex:a ex:p "x" .')
        assert len(g) == 1

    def test_object_and_predicate_lists(self):
        g = parse('@prefix ex: <http://example.org/> . ex:a ex:p "x", "y" ; ex:q ex:c .')
        assert len(g) == 3

    def test_trailing_semicolon_allowed(self):
        g = parse("@prefix ex: <http://example.org/> . ex:a ex:p ex:b ; .")
        assert len(g) == 1

    def test_literal_forms(self):
        g = parse(
            '@prefix ex: <http://example.org/> .\n'
            '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
            'ex:a ex:p "plain", "tagged"@EN, "2020-01-01"^^xsd:date, 42, -3.5, """long\n"quoted"\nstring""" .'
        )
        objects = {t.object for t in g}
        assert Literal("plain") in objects
        assert Literal("tagged", language="en") in objects
        assert Literal("2020-01-01", XSD_DATE) in objects
        assert Literal("42", XSD_INTEGER) in objects
        assert Literal("-3.5", XSD_DECIMAL) in objects
        assert Literal('long\n"quoted"\nstring') in objects

    def test_escapes_in_short_string(self):
        g = parse('@prefix ex: <http://example.org/> . ex:a ex:p "a\\"b\\n\\tc\\u00E9" .')
        (t,) = g
        assert t.object == Literal('a"b\n\tcé')

    def test_blank_node_labels(self):
        g = parse("@prefix ex: <http://example.org/> . _:x ex:p _:y .")
        (t,) = g
        assert t.subject.label == "x"
        assert t.object.label == "y"

    def test_comments_ignored(self):
        g = parse("# leading\n@prefix ex: <http://example.org/> . # mid\nex:a ex:p ex:b . # end")
        assert len(g) == 1

    def test_percent_escaped_local_names(self):
        g = parse("@prefix c: <http://ehu.eus/tro/data/contract/> . c:EXP-2018%2F0042 a c:thing .")
        (t,) = g
        assert t.subject == Iri("http://ehu.eus/tro/data/contract/EXP-2018%2F0042")

    def test_medial_dot_in_local_name(self):
        g = parse("@prefix ex: <http://example.org/> . ex:v1.2 ex:p ex:b .")
        (t,) = g
        assert t.subject == Iri("http://example.org/v1.2")

    def test_duplicate_triples_collapse(self):
        g = parse("@prefix ex: <http://example.org/> . ex:a ex:p ex:b . ex:a ex:p ex:b .")
        assert len(g) == 1


def expect_error(text, fragment, line=None, col=None):
    with pytest.raises(ParseError) as exc_info:
        parse_turtle(text)
    err = exc_info.value
    assert fragment in err.message, err.message
    if line is not None:
        assert err.line == line, f"line {err.line} != {line}: {err}"
    if col is not None:
        assert err.col == col, f"col {err.col} != {col}: {err}"
    return err


class TestParseErrors:
    def test_undeclared_prefix(self):
        err = expect_error(":a :b :c .", "undeclared prefix", line=1, col=1)
        assert "':'" in err.message

    def test_undeclared_named_prefix_position(self):
        expect_error("@prefix ex: <http://example.org/> .\nex:a tro:p ex:b .", "undeclared prefix 'tro:'", line=2, col=6)

    def test_unterminated_string(self):
        expect_error('@prefix ex: <http://example.org/> . ex:a ex:p "oops .', "unterminated string", line=1, col=47)

    def test_unterminated_long_string(self):
        expect_error('@prefix ex: <http://example.org/> . ex:a ex:p """oops .', "unterminated string")

    def test_unterminated_iri(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p <http://example.org/x .", "unterminated IRI")

    def test_missing_final_dot(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p ex:b", "expected '.'")

    def test_collections_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p (1 2) .", "collections are not supported")

    def test_anonymous_blank_nodes_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p [] .", "anonymous blank node property lists are not supported")

    def test_base_rejected(self):
        expect_error("@base <http://example.org/> .", "base directives are not supported")
        expect_error("BASE <http://example.org/>", "base directives are not supported")

    def test_doubles_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p 4.2e1 .", "double literals are not supported")

    def test_booleans_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p true .", "boolean literals are not supported")

    def test_single_quotes_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a ex:p 'x' .", "single-quoted strings are not supported")

    def test_relative_iri_rejected(self):
        expect_error("<relative/path> a <http://example.org/C> .", "not absolute")

    def test_literal_subject_rejected(self):
        expect_error('@prefix ex: <http://example.org/> . "x" ex:p ex:b .', "expected subject")

    def test_lang_string_without_a_tag_rejected(self):
        text = '<a:s> <a:p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .'
        expect_error(text, "rdf:langString requires a language tag", line=1, col=18)

    def test_blank_predicate_rejected(self):
        expect_error("@prefix ex: <http://example.org/> . ex:a _:p ex:b .", "expected predicate")

    def test_error_positions_track_lines(self):
        err = expect_error("@prefix ex: <http://example.org/> .\n\nex:a ex:p [] .", "anonymous blank node", line=3, col=11)
        assert str(err).startswith("line 3, column 11:")


class TestSerializer:
    def test_empty_graph_with_prefixes(self):
        g = Graph({"ex": Iri(EX)})
        assert serialize_turtle(g) == "@prefix ex: <http://example.org/> .\n"
        assert serialize_turtle(Graph()) == ""

    def test_grouping_shape(self):
        g = Graph({"ex": Iri(EX)})
        a = Iri(EX + "a")
        g.insert(Triple(a, RDF_TYPE, Iri(EX + "C")))
        g.insert(Triple(a, Iri(EX + "p"), Literal("x")))
        g.insert(Triple(a, Iri(EX + "p"), Literal("y")))
        text = serialize_turtle(g)
        assert text == (
            "@prefix ex: <http://example.org/> .\n"
            "\n"
            'ex:a a ex:C ;\n'
            '    ex:p "x", "y" .\n'
        )

    def test_numeric_shorthand_only_for_clean_lexicals(self):
        g = Graph()
        a = Iri(EX + "a")
        p = Iri(EX + "p")
        g.insert(Triple(a, p, Literal("42", XSD_INTEGER)))
        g.insert(Triple(a, p, Literal("4.5", XSD_DECIMAL)))
        g.insert(Triple(a, p, Literal("not-a-number", XSD_INTEGER)))
        text = serialize_turtle(g)
        assert " 42" in text and "4.5" in text
        assert '"not-a-number"^^<http://www.w3.org/2001/XMLSchema#integer>' in text

    def test_unsafe_locals_fall_back_to_full_iri(self):
        g = Graph({"ex": Iri(EX)})
        # trailing dot cannot appear in a prefixed local name
        g.insert(Triple(Iri(EX + "odd."), Iri(EX + "p"), Literal("x")))
        text = serialize_turtle(g)
        assert "<http://example.org/odd.>" in text

    @pytest.mark.parametrize("prefix", ["1x", "a b", "a:b", "a.b", "-x"])
    def test_unwritable_prefix_rejected(self, prefix):
        edited = Graph()
        edited.prefixes[prefix] = Iri(EX)
        for g in (Graph({prefix: Iri(EX)}), edited):
            with pytest.raises(ValueError, match=f"prefix '{re.escape(prefix)}' is not a Turtle prefix name"):
                serialize_turtle(g)

    @pytest.mark.parametrize("prefix", ["", "ex", "ex-1", "a_b"])
    def test_writable_prefix_round_trips(self, prefix):
        g = Graph({prefix: Iri(EX)})
        g.insert(Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")))
        text = serialize_turtle(g)
        assert f"@prefix {prefix}: <{EX}> ." in text and f"{prefix}:a {prefix}:p {prefix}:b ." in text
        again = parse_turtle(text)
        assert list(again) == list(g)
        assert again.prefixes == g.prefixes

    def test_deterministic(self):
        rng = random.Random(13)
        g = random_graph(rng, max_triples=80)
        assert serialize_turtle(g) == serialize_turtle(graph_of(reversed(list(g)), g.prefixes))


class TestRoundTrip:
    def test_parse_example_round_trips(self):
        text = "@prefix tro: <http://ehu.eus/tro#> . tro:Role a <http://www.w3.org/2002/07/owl#Class> ."
        g = parse_turtle(text)
        again = parse_turtle(serialize_turtle(g))
        assert list(again) == list(g)
        assert again.prefixes == g.prefixes

    def test_random_graphs_round_trip(self):
        rng = random.Random(20260813)
        for _ in range(120):
            g = random_graph(rng, max_triples=60)
            reparsed = parse_turtle(serialize_turtle(g))
            assert canonical_ntriples(reparsed) == canonical_ntriples(g)

    def test_blank_nodes_round_trip_through_turtle(self):
        from trokit import BlankNode

        g = Graph({"ex": Iri(EX)})
        g.insert(Triple(BlankNode("b1"), Iri(EX + "p"), BlankNode("b2")))
        reparsed = parse_turtle(serialize_turtle(g))
        assert list(reparsed) == list(g)


PREFIX_LINE = "@prefix ex: <http://example.org/> .\n"

# Every message the tokenizer raises, with its 1-based line and column.
# Each body follows PREFIX_LINE, so line 2 is the body's first line.
LEXER_ERRORS = [
    ("ex:a ex:p ex:b ; ex:q ! .", "unexpected character '!'", 2, 23),
    ("ex:a ex:p ex:b\f.", "unexpected character '\\x0c'", 2, 15),
    ("ex:a ex:p _x .", "unexpected character '_'", 2, 11),
    ("ex:a ex:p ex:b%2 .", "unexpected character '%'", 2, 15),
    ("ex:a ex:p ex:b.%zz .", "unexpected character '%'", 2, 16),
    ('ex:a ex:p "x"@en_US .', "unexpected character '_'", 2, 17),
    ("ex:a ex:p 'x' .", "single-quoted strings are not supported", 2, 11),
    ("ex:a ex:p (1) .", "collections are not supported", 2, 11),
    ("ex:a ex:p ) .", "collections are not supported", 2, 11),
    ("ex:a ex:p [ ] .", "anonymous blank node property lists are not supported", 2, 11),
    ("ex:a ex:p ] .", "anonymous blank node property lists are not supported", 2, 11),
    ('ex:a ex:p "x"^<http://x/> .', "unexpected '^'", 2, 14),
    ("ex:a ex:p <http://example.org/x\n> .", "unterminated IRI reference", 2, 11),
    ("ex:a ex:p <http://example.org/x", "unterminated IRI reference", 2, 11),
    ("ex:a ex:p <> .", "IRI must be non-empty", 2, 11),
    ("ex:a ex:p <rel> .", "IRI is not absolute (no scheme): 'rel'", 2, 11),
    ('ex:a ex:p "\\u00G9" .', "malformed \\u escape", 2, 12),
    ('ex:a ex:p "\\U0001F60" .', "malformed \\U escape", 2, 12),
    ('ex:a ex:p """\\u00""" .', "malformed \\u escape", 2, 14),
    ("ex:a ex:p <http://example.org/\\u12> .", "malformed \\u escape", 2, 31),
    ('ex:a ex:p "\\q" .', "invalid escape sequence '\\q'", 2, 12),
    ("ex:a ex:p <http://example.org/\\n> .", "invalid escape sequence '\\n' in IRI", 2, 31),
    ('ex:a ex:p "abc\\', "invalid escape sequence '\\'", 2, 15),
    ('ex:a ex:p "line\nbreak" .', "unterminated string literal", 2, 11),
    ('ex:a ex:p "cr\rhere" .', "unterminated string literal", 2, 11),
    ('ex:a ex:p """never closed ""', "unterminated string literal", 2, 11),
    ('ex:a ex:p ex:b .\n"oops ', "unterminated string literal", 3, 1),
    ("ex:a ex:p _: .", "missing blank node label", 2, 11),
    ("ex:a ex:p 4.2e1 .", "double literals are not supported", 2, 11),
    ("ex:a ex:p .5E-3 .", "double literals are not supported", 2, 11),
    ("ex:a ex:p -e5 .", "double literals are not supported", 2, 11),
    ("ex:a ex:p + .", "malformed numeric literal", 2, 11),
    ("ex:a ex:p - .", "malformed numeric literal", 2, 11),
    ("ex:a ex:p ex:-b .", "malformed numeric literal", 2, 14),
    ('ex:a ex:p "x"@en- .', "malformed language tag '@en-'", 2, 14),
    ('ex:a ex:p "x"@1en .', "malformed language tag '@1en'", 2, 14),
    ("@base <http://example.org/> .", "base directives are not supported", 2, 1),
    ("BASE <http://example.org/>", "base directives are not supported", 2, 1),
    ("base <http://example.org/>", "base directives are not supported", 2, 1),
    ("@foo <http://example.org/> .", "unknown directive '@foo'", 2, 1),
    ("@ <http://example.org/> .", "unknown directive '@'", 2, 1),
    ("@prefixes ex: <http://example.org/> .", "unknown directive '@prefixes'", 2, 1),
    ("@prefix_x ex: <http://example.org/> .", "unknown directive '@prefix_x'", 2, 1),
    ("ex:a ex:p ex:b @en .", "unknown directive '@en'", 2, 16),
    ("ex:a ex:p true .", "boolean literals are not supported", 2, 11),
    ("ex:a ex:p false .", "boolean literals are not supported", 2, 11),
    ("ex:a ex:p True .", "unexpected bare word 'True'", 2, 11),
    ("ex:a ex:p a-b .", "unexpected bare word 'a-b'", 2, 11),
    ("ex:a ex:p 1.e5 .", "unexpected bare word 'e5'", 2, 13),
    # positions count code points, and only \n starts a line
    ("# ñandú 🦩\nex:a ex:p \"α β γ\" ; ex:q 'é' .", "single-quoted strings are not supported", 3, 26),
    ("ex:a ex:p ex:b .\r\nex:c ex:p ex:d .\r\n  ex:e ex:p 'x' .\r\n", "single-quoted strings are not supported", 4, 13),
    ("ex:a ex:p ex:b . # trailing 'comment'\n  ex:c ex:p [] .", "anonymous blank node property lists are not supported", 3, 13),
    ("ex:a ex:p ex:b # ex:q\n'oops' .", "single-quoted strings are not supported", 3, 1),
    ("ex:a ex:p \"🦩\\x\" .", "invalid escape sequence '\\x'", 2, 13),
]

# Escapes that name no Unicode scalar value: surrogates and code points
# above U+10FFFF. Reported at the backslash, in strings and in IRIs.
BAD_CODE_POINTS = [
    ('ex:a ex:p "\\uD800" .', "escape '\\uD800' does not encode a character", 2, 12),
    ('ex:a ex:p "ok \\udfff" .', "escape '\\udfff' does not encode a character", 2, 15),
    ('ex:a ex:p "\\UFFFFFFFF" .', "escape '\\UFFFFFFFF' does not encode a character", 2, 12),
    ('ex:a ex:p """\n\\U00110000""" .', "escape '\\U00110000' does not encode a character", 3, 1),
    ("ex:a ex:p <http://example.org/\\U00110000> .", "escape '\\U00110000' does not encode a character", 2, 31),
    ("ex:a ex:p <http://example.org/\\uDBFF> .", "escape '\\uDBFF' does not encode a character", 2, 31),
    ("<http://example.org/\\U0000D800> ex:p ex:b .", "escape '\\U0000D800' does not encode a character", 2, 21),
    # raw lone surrogates, reported where they stand
    ('ex:a ex:p "ok\ud800" .', "lone surrogate U+D800 is not a character", 2, 14),
    ('ex:a ex:p """\n\udfff""" .', "lone surrogate U+DFFF is not a character", 3, 1),
    ("ex:a ex:p \udc00 .", "unexpected character '\\udc00'", 2, 11),
]


class TestLexerErrors:
    @pytest.mark.parametrize("body, message, line, col", LEXER_ERRORS + BAD_CODE_POINTS)
    def test_message_and_position(self, body, message, line, col):
        err = expect_error(PREFIX_LINE + body, message, line, col)
        assert err.message == message

    @pytest.mark.parametrize(
        "written, value",
        [
            ("http://example.org/a b", "http://example.org/a b"),
            ('http://example.org/a"b', 'http://example.org/a"b'),
            ("http://example.org/{x}", "http://example.org/{x}"),
            ("http://example.org/\\u0020", "http://example.org/ "),
            ("http://example.org/a\udc00", "http://example.org/a\udc00"),
        ],
    )
    def test_iri_character_errors_come_from_iri(self, written, value):
        with pytest.raises(ValueError) as exc_info:
            Iri(value)
        expect_error(PREFIX_LINE + f"ex:a ex:p <{written}> .", str(exc_info.value), 2, 11)

    def test_code_points_at_the_limits_are_accepted(self):
        g = parse(PREFIX_LINE + 'ex:a ex:p "\\uD7FF\\uE000\\U0010FFFF\\U00010000" .')
        (t,) = g
        assert t.object == Literal("퟿\U0010ffff\U00010000")


def objects_of(body):
    return sorted(t.object.n3() for t in parse(PREFIX_LINE + body))


class TestLexerBoundaries:
    """Token boundaries the tokenizer must draw exactly where they were."""

    def test_non_ascii_digits_are_not_number_digits(self):
        # Turtle numbers are [0-9]; other Unicode decimal digits such as U+0663 are not,
        # so '.٣' is no decimal: its '.' ends a statement that has no object
        expect_error(PREFIX_LINE + "ex:a ex:p .٣ .", "expected object (IRI, blank node or literal), found '.'", 2, 11)
        expect_error(PREFIX_LINE + "ex:a ex:p 1.٣ .", "unexpected character '٣'", 2, 13)
        expect_error(PREFIX_LINE + "ex:a ex:p ٣ .", "unexpected character '٣'", 2, 11)
        expect_error(PREFIX_LINE + "ex:a ex:p 1٣ .", "unexpected character '٣'", 2, 12)
        expect_error(PREFIX_LINE + "ex:a ex:p ex:b.٣ .", "unexpected character '٣'", 2, 16)
        expect_error(PREFIX_LINE + "ex:a ex:p 1e٣ .", "unexpected bare word 'e'", 2, 12)
        assert objects_of("ex:a ex:p 1.5, .5, 12 .") == [
            '".5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
            '"1.5"^^<http://www.w3.org/2001/XMLSchema#decimal>',
            '"12"^^<http://www.w3.org/2001/XMLSchema#integer>',
        ]

    def test_digits_are_decimal_digits_only(self):
        # superscripts pass str.isdigit but are not decimal digits
        expect_error(PREFIX_LINE + "ex:a ex:p ² .", "unexpected character '²'", 2, 11)
        expect_error(PREFIX_LINE + "ex:a ex:p 1² .", "unexpected character '²'", 2, 12)

    def test_medial_and_trailing_dots_in_local_names(self):
        g = parse(PREFIX_LINE + "ex:a.b ex:p ex:c.d.")
        (t,) = g
        assert (t.subject, t.object) == (Iri(EX + "a.b"), Iri(EX + "c.d"))
        expect_error(PREFIX_LINE + "ex:a ex:p ex:b.. ", "expected subject (IRI or blank node), found '.'", 2, 16)

    def test_percent_escapes_and_leading_characters_in_local_names(self):
        assert objects_of("ex:a ex:p ex:b.%2F .") == ["<http://example.org/b.%2F>"]
        assert objects_of("ex:a ex:p ex:%41b .") == ["<http://example.org/%41b>"]
        assert objects_of("ex:a ex:p ex:_b-c .") == ["<http://example.org/_b-c>"]
        assert objects_of("ex:a ex:p ex:9 .") == ["<http://example.org/9>"]

    def test_empty_string_versus_long_string_opener(self):
        assert objects_of('ex:a ex:p "", """""", """a"""", "x" .') == ['""', '"a\\""', '"x"']
        assert objects_of('ex:a ex:p """""""" .') == ['"\\"\\""']
        assert objects_of('ex:a ex:p """a""b"c""" .') == ['"a\\"\\"b\\"c"']

    def test_at_after_a_string_is_a_language_tag(self):
        assert objects_of('ex:a ex:p "x" @en .') == ['"x"@en']
        assert objects_of('ex:a ex:p "x"@prefix .') == ['"x"@prefix']
        expect_error(PREFIX_LINE + "ex:a ex:p ex:b @en .", "unknown directive '@en'", 2, 16)

    def test_integer_then_dot(self):
        assert objects_of("ex:a ex:p 12.\n") == ['"12"^^<http://www.w3.org/2001/XMLSchema#integer>']
        assert objects_of("ex:a ex:p -7.") == ['"-7"^^<http://www.w3.org/2001/XMLSchema#integer>']
        assert objects_of("ex:a ex:p +.5 .") == ['"+.5"^^<http://www.w3.org/2001/XMLSchema#decimal>']

    def test_bare_words(self):
        g = parse("prefix e: <http://e.org/>\nPrEfIx f: <http://f.org/>\ne:a a f:C .")
        (t,) = g
        assert (t.predicate, t.object) == (RDF_TYPE, Iri("http://f.org/C"))
        expect_error("a:b a:c a:d .", "undeclared prefix 'a:'", 1, 1)
        expect_error("Base <http://example.org/>", "base directives are not supported", 1, 1)


def term_objects(graph):
    """Every term object the graph's indexes hold, as ids grouped by equal term."""
    found = {}
    for index in (graph._spo, graph._pos):
        for a, inner in index.items():
            for b, leaves in inner.items():
                for term in (a, b, *leaves):
                    found.setdefault(term, set()).add(id(term))
    return found


class TestTermMemo:
    """One parse builds each distinct term once; the same text still means the same term."""

    def test_rebound_prefix_gives_distinct_iris(self):
        g = parse(
            '@prefix ex: <http://one.example/> .\nex:s ex:p ex:x, "v"^^ex:d .\n'
            '@prefix ex: <http://two.example/> .\nex:s ex:p ex:x, "v"^^ex:d .\n'
        )
        assert len(g) == 4
        assert [t.n3() for t in g] == [
            '<http://one.example/s> <http://one.example/p> "v"^^<http://one.example/d> .',
            "<http://one.example/s> <http://one.example/p> <http://one.example/x> .",
            '<http://two.example/s> <http://two.example/p> "v"^^<http://two.example/d> .',
            "<http://two.example/s> <http://two.example/p> <http://two.example/x> .",
        ]

    def test_language_tags_differing_in_case_give_one_term(self):
        g = parse(PREFIX_LINE + 'ex:a ex:p "x"@EN .\nex:b ex:p "x"@en .\nex:c ex:p "x"@En-gB, "x" .')
        p = Iri(EX + "p")
        (upper,) = g.objects(Iri(EX + "a"), p)
        (lower,) = g.objects(Iri(EX + "b"), p)
        assert upper == lower == Literal("x", language="en")
        assert hash(upper) == hash(lower) == hash(Literal("x", language="en"))
        assert g.subjects(p, lower) == [Iri(EX + "a"), Iri(EX + "b")]
        assert g.objects(Iri(EX + "c"), p) == [Literal("x"), Literal("x", language="en-gb")]

    def test_repeated_terms_are_one_object(self):
        g = parse(
            PREFIX_LINE
            + 'ex:a ex:p <http://example.org/b>, "s", 7, 1.5, "t"@en, "d"^^ex:dt, "7"^^<http://example.org/dt> .\n'
            + 'ex:b ex:p ex:a ; ex:q ex:b, "s", 7, 1.5, "t"@en, "d"^^<http://example.org/dt>, "7"^^ex:dt .\n'
            + '<http://example.org/dt> ex:q ex:p, "7"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        found = term_objects(g)
        assert {t.n3() for t, ids in found.items() if len(ids) > 1} == set()
        assert Literal("7", XSD_INTEGER) in found and Iri(EX + "dt") in found
        # a literal's datatype is part of its text, not an object the graph holds:
        # it reads back equal to the IRI the parse memoised for the same text
        memoised = {t.n3(): t for t in found if isinstance(t, Iri)}
        typed = [x for x in found if isinstance(x, Literal) and x.datatype.n3() in memoised]
        assert len(typed) == 2
        assert all(isinstance(x.datatype, Iri) and x.datatype == memoised[x.datatype.n3()] for x in typed)
        # a number and a string of the same lexical form stay distinct terms
        assert g.objects(Iri(EX + "b"), Iri(EX + "q")).count(Literal("7", XSD_INTEGER)) == 1
        assert Literal("7", Iri(EX + "dt")) in g.objects(Iri(EX + "b"), Iri(EX + "q"))

    def test_spellings_of_one_literal_are_one_object(self):
        g = parse(
            PREFIX_LINE
            + 'ex:a ex:p "a\\"A", """a"A""", "a\\u0022\\u0041"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
            + 'ex:b ex:p "a\\"A" ; ex:q "a\\U00000022A", "7"^^ex:dt, "\\u0037"^^ex:dt .\n'
        )
        found = term_objects(g)
        assert {t.n3() for t, ids in found.items() if len(ids) > 1} == set()
        assert g.objects(Iri(EX + "a"), Iri(EX + "p")) == [Literal('a"A')]
        assert g.objects(Iri(EX + "b"), Iri(EX + "q")) == [Literal("7", Iri(EX + "dt")), Literal('a"A')]

    def test_an_escaped_iri_equals_its_plain_spelling(self):
        g = parse(PREFIX_LINE + "ex:a ex:p <http://example.org/\\u0062>, <http://example.org/b>, ex:b .")
        assert g.objects(Iri(EX + "a"), Iri(EX + "p")) == [Iri(EX + "b")]

    def test_terms_are_not_shared_between_parses(self):
        text = PREFIX_LINE + 'ex:a ex:p "s" .'
        (first,), (second,) = parse(text), parse(text)
        assert first == second
        assert first.subject is not second.subject and first.object is not second.object

    @pytest.mark.parametrize(
        "body, message, line",
        [
            ("ex:a ex:p <rel> .\nex:b ex:p <rel> .", "IRI is not absolute (no scheme): 'rel'", 2),
            ("ex:a ex:p <rel>, <rel> .", "IRI is not absolute (no scheme): 'rel'", 2),
            ("ex:a ex:q ex:c .\nex:a ex:p <http://x/\\u0020>, <http://x/\\u0020> .", "disallowed character ' '", 3),
        ],
    )
    def test_an_invalid_iri_raises_at_its_first_use(self, body, message, line):
        expect_error(PREFIX_LINE + body, message, line, 11)


def _big_graph():
    g = Graph({"ex": Iri(EX)})
    title, count = Iri(EX + "title"), Iri(EX + "count")
    for i in range(4500):
        node = Iri(f"{EX}item/{i:05d}")
        g.insert(Triple(node, RDF_TYPE, Iri(EX + "Item")))
        g.insert(Triple(node, title, Literal(f'Título {i} «ñandú» "q" \\ \t 🦩 ασφάλεια', language="es")))
        g.insert(Triple(node, title, Literal(f"line one\nline two {i}\r\x01")))
        g.insert(Triple(node, count, Literal(str(i - 2000), XSD_INTEGER)))
        g.insert(Triple(node, count, Literal(f"{i}.25", XSD_DECIMAL)))
        g.insert(Triple(node, Iri(EX + "see"), Iri(f"http://example.org/other/{i % 97}#frag")))
    return g


class TestLargeInput:
    def test_megabyte_round_trip_and_last_line_error(self):
        g = _big_graph()
        text = serialize_turtle(g)
        assert len(text.encode("utf-8")) > 1_000_000
        assert canonical_ntriples(parse_turtle(text)) == canonical_ntriples(g)
        bad = text + 'ex:z ex:p "ñ🦩", \'oops\' .\n'
        expect_error(bad, "single-quoted strings are not supported", text.count("\n") + 1, 17)


_HOSTILE_CHARS = st.one_of(
    st.sampled_from('"\\\'\n\r\t\b\f\x00\x01\x1f\x7f ﻿'),
    st.characters(exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF, exclude_categories=("Cs",)),
)
_LEXICALS = st.text(alphabet=_HOSTILE_CHARS, max_size=40)
_LITERALS = st.one_of(
    st.builds(Literal, _LEXICALS),
    st.builds(Literal, _LEXICALS, st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DATE, Iri(EX + "dt")])),
    st.builds(lambda text, tag: Literal(text, language=tag), _LEXICALS, st.sampled_from(["en", "eu-ES", "de-CH-1996"])),
)


class TestHypothesisRoundTrip:
    @given(st.lists(_LITERALS, min_size=1, max_size=5))
    def test_literals_round_trip_through_turtle(self, literals):
        g = Graph({"ex": Iri(EX)})
        for lit in literals:
            g.insert(Triple(Iri(EX + "a"), Iri(EX + "p"), lit))
        assert canonical_ntriples(parse_turtle(serialize_turtle(g))) == canonical_ntriples(g)

    @given(st.lists(_LITERALS, min_size=1, max_size=5))
    def test_canonical_ntriples_parse_back(self, literals):
        g = Graph()
        for lit in literals:
            g.insert(Triple(Iri(EX + "a"), Iri(EX + "p"), lit))
        nt = canonical_ntriples(g)
        assert canonical_ntriples(parse_turtle(nt)) == nt


# Overlapping namespaces, so several prefixes can cover one IRI and the
# longest namespace must win; some locals are unwritable as prefixed names.
_NAMESPACES = [
    "http://example.org/",
    "http://example.org/a",
    "http://example.org/a/",
    "http://example.org/some/",
    "http://example.org/some/path#",
    "urn:",
    "urn:uuid:",
]
_IRIS = st.sampled_from(
    [
        "http://example.org/",
        "http://example.org/a",
        "http://example.org/ab",
        "http://example.org/a/b",
        "http://example.org/a/b.c",
        "http://example.org/odd.",
        "http://example.org/some/path#frag",
        "urn:uuid:c0ffee00-1234",
        "http://other.example/x",
    ]
).map(Iri)
_PREFIX_NAMES = st.one_of(
    st.sampled_from(["", "ex", "a", "ab", "x-1", "a_b", "p0"]),
    st.text(alphabet="ab1-_.: ", min_size=1, max_size=3),
)
_PN_PREFIX_GRAMMAR = re.compile(r"[A-Za-z][A-Za-z0-9_\-]*")
# the local-name grammar, for locals without '%' (none of _IRIS has one)
_LOCAL_GRAMMAR = re.compile(r"(?:[A-Za-z0-9_][A-Za-z0-9_\-]*(?:\.[A-Za-z0-9_\-]+)*)?")


def expected_name(iri, prefixes):
    """The longest bound namespace with a writable local wins; ties go to the smaller prefix."""
    options = [
        (-len(ns.value), prefix, iri.value[len(ns.value):])
        for prefix, ns in prefixes.items()
        if iri.value.startswith(ns.value) and _LOCAL_GRAMMAR.fullmatch(iri.value[len(ns.value):])
    ]
    if not options:
        return iri.n3()
    _, prefix, local = min(options)
    return f"{prefix}:{local}"


class TestHypothesisSerializer:
    @given(
        st.dictionaries(_PREFIX_NAMES, st.sampled_from(_NAMESPACES).map(Iri), max_size=5),
        st.lists(st.tuples(_IRIS, _IRIS, st.one_of(_IRIS, _LITERALS)), max_size=8),
    )
    def test_round_trips_or_names_the_bad_prefix(self, prefixes, triples):
        g = graph_of((Triple(*t) for t in triples), prefixes)
        bad = [p for p in prefixes if p and not _PN_PREFIX_GRAMMAR.fullmatch(p)]
        try:
            text = serialize_turtle(g)
        except ValueError as exc:
            assert str(exc) in {f"prefix {p!r} is not a Turtle prefix name" for p in bad}
            return
        assert not bad
        again = parse_turtle(text)
        assert list(again) == list(g)
        assert again.prefixes == g.prefixes
        # the chosen prefixed names depend on the bindings, not on their order
        reordered = graph_of(g, dict(reversed(prefixes.items())))
        assert serialize_turtle(reordered) == text

    @given(
        st.dictionaries(
            _PREFIX_NAMES.filter(lambda p: not p or _PN_PREFIX_GRAMMAR.fullmatch(p)),
            st.sampled_from(_NAMESPACES).map(Iri),
            max_size=5,
        ),
        st.lists(_IRIS, min_size=1, max_size=4, unique=True),
    )
    def test_each_iri_takes_the_longest_namespace(self, prefixes, iris):
        g = graph_of((Triple(i, i, i) for i in iris), prefixes)
        lines = [line for line in serialize_turtle(g).splitlines() if line and not line.startswith("@prefix ")]
        names = [expected_name(i, prefixes) for i in iris]
        assert sorted(lines) == sorted(f"{n} {n} {n} ." for n in names)


# Terms whose texts extend one another: IRIs that share a prefix, literals
# that differ only in their suffix, and blank-node labels such as b1 and b10.
_WALK_IRIS = st.sampled_from(
    ["http://e.org/a", "http://e.org/a/", "http://e.org/ab", "http://e.org/a#b", "http://e.org/é", "urn:x", "urn:x:y"]
).map(Iri)
_WALK_LEXICALS = st.sampled_from(["", "a", "a b", "ab", 'a"', "a\n", "é", "1"])
_WALK_LITERALS = st.one_of(
    st.builds(Literal, _WALK_LEXICALS),
    st.builds(lambda text, tag: Literal(text, language=tag), _WALK_LEXICALS, st.sampled_from(["en", "en-us", "en-u"])),
    st.builds(Literal, _WALK_LEXICALS, st.sampled_from([XSD_INTEGER, Iri("http://e.org/a"), Iri("http://e.org/ab")])),
)
_WALK_BLANKS = st.sampled_from(["b", "b1", "b10", "b2", "B1", "_1"]).map(BlankNode)


def _first_seen(items):
    return list(dict.fromkeys(items))


class TestWalkOrder:
    @given(st.lists(st.tuples(_WALK_IRIS, _WALK_IRIS, st.one_of(_WALK_IRIS, _WALK_LITERALS)), max_size=12))
    def test_ntriples_walk_yields_the_sorted_lines(self, triples):
        lines = sorted({f"{s} {p} {o} .\n" for s, p, o in triples})
        chunks = list(_ntriples_chunks(graph_of(Triple(*t) for t in triples)))
        assert "".join(chunks) == "".join(lines)
        # one chunk per subject, in the order the sorted lines first name it
        assert [chunk.split(" ", 1)[0] for chunk in chunks] == _first_seen(line.split(" ", 1)[0] for line in lines)

    @given(
        st.lists(
            st.tuples(
                st.one_of(_WALK_IRIS, _WALK_BLANKS), _WALK_IRIS, st.one_of(_WALK_IRIS, _WALK_BLANKS, _WALK_LITERALS)
            ),
            max_size=12,
        )
    )
    def test_turtle_walk_takes_subjects_in_sorted_line_order(self, triples):
        g = graph_of(Triple(*t) for t in triples)
        lines = sorted({f"{s} {p} {o} .\n" for s, p, o in triples})
        chunks = list(_turtle_chunks(g))
        assert [chunk.lstrip("\n").split(" ", 1)[0] for chunk in chunks] == _first_seen(
            line.split(" ", 1)[0] for line in lines
        )
        assert list(parse_turtle("".join(chunks))) == list(g)
