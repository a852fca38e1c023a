"""Terms are str subclasses whose text is their canonical N-Triples form."""

import copy
import json
import pickle

from hypothesis import example, given
from hypothesis import strategies as st

from trokit import BlankNode, Iri, Literal, parse_turtle
from trokit.rdf_core import RDF_LANG_STRING, XSD_DATE, XSD_INTEGER, XSD_STRING
from trokit.rdf_core.model import _unescape, canonical_escapes, escape_literal

# every C0 control, DEL and the two characters with their own escapes, besides
# any other non-surrogate character, so escaping is exercised on every draw
_CHARS = st.one_of(
    st.sampled_from([chr(c) for c in range(0x20)] + ['"', "\\", "\x7f"]),
    st.characters(exclude_categories=("Cs",)),
    st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
)
_TEXT = st.text(alphabet=_CHARS, max_size=30)
_IRI_TEXT = st.builds(
    lambda scheme, rest: f"{scheme}:{rest}",
    st.from_regex(r"[A-Za-z][A-Za-z0-9+.\-]{0,6}", fullmatch=True),
    st.text(alphabet=st.characters(min_codepoint=0x21, exclude_characters='<>"{}|^`\\', exclude_categories=("Cs",)), max_size=20),
)
_LABEL = st.from_regex(r"[A-Za-z0-9_]{1,12}", fullmatch=True)
_TAG = st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True)
_DATATYPES = st.one_of(st.sampled_from([XSD_STRING, XSD_INTEGER, XSD_DATE]), _IRI_TEXT.map(Iri))


def n3_reference(kind: str, parts: tuple) -> str:
    """The canonical N-Triples text of a term, written from its parts as the dataclass terms did."""
    if kind == "iri":
        return f"<{parts[0]}>"
    if kind == "blank":
        return f"_:{parts[0]}"
    lexical, datatype, language = parts
    escaped = "".join(
        {"\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r", '"': '\\"', "\\": "\\\\"}.get(ch)
        or ("\\u%04X" % ord(ch) if ord(ch) < 0x20 or ch == "\x7f" else ch)
        for ch in lexical
    )
    if language is not None:
        return f'"{escaped}"@{language.lower()}'
    if datatype == XSD_STRING:
        return f'"{escaped}"'
    return f'"{escaped}"^^<{datatype.value}>'


_PARTS = st.one_of(
    st.tuples(st.just("iri"), st.tuples(_IRI_TEXT)),
    st.tuples(st.just("blank"), st.tuples(_LABEL)),
    st.tuples(st.just("literal"), st.tuples(_TEXT, _DATATYPES, st.none())),
    st.tuples(st.just("literal"), st.tuples(_TEXT, st.sampled_from([XSD_STRING, RDF_LANG_STRING]), _TAG)),
)


def build(kind: str, parts: tuple):
    return {"iri": Iri, "blank": BlankNode, "literal": Literal}[kind](*parts)


class TestTermText:
    @given(_TEXT, _DATATYPES)
    def test_typed_literal_reads_back_its_parts(self, lexical, datatype):
        lit = Literal(lexical, datatype)
        assert (lit.lexical, lit.datatype, lit.language) == (lexical, datatype, None)
        assert type(lit.datatype) is Iri

    @given(_TEXT, _TAG)
    def test_tagged_literal_reads_back_its_parts(self, lexical, tag):
        lit = Literal(lexical, language=tag)
        assert (lit.lexical, lit.datatype, lit.language) == (lexical, RDF_LANG_STRING, tag.lower())

    @given(st.lists(_PARTS, max_size=12))
    def test_text_is_the_canonical_form_and_sorts_as_it(self, drawn):
        terms = [build(kind, parts) for kind, parts in drawn]
        reference = {term: n3_reference(kind, parts) for term, (kind, parts) in zip(terms, drawn)}
        assert all(term == term.n3() == str(term) == reference[term] for term in terms)
        assert sorted(terms) == sorted(terms, key=reference.__getitem__)

    @given(_LABEL, _TAG)
    def test_terms_of_two_kinds_are_never_equal(self, label, tag):
        iri, blank = Iri("urn:" + label), BlankNode(label)
        terms = [
            iri,
            blank,
            Literal(label),
            Literal(label, language=tag),
            Literal(label, XSD_INTEGER),
            Literal("urn:" + label),
            Literal(iri),  # a literal whose lexical form is another term's whole text
            Literal(blank),
        ]
        assert len(set(terms)) == len(terms)
        assert all(a != b for i, a in enumerate(terms) for b in terms[i + 1 :])

    @given(_PARTS)
    def test_pickle_and_copy_keep_type_and_equality(self, drawn):
        term = build(*drawn)
        copies = [copy.copy(term), copy.deepcopy(term)]
        copies += [pickle.loads(pickle.dumps(term, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies:
            assert type(twin) is type(term) and twin == term and hash(twin) == hash(term)
            assert twin.n3() == term.n3()


_ECHARS = {"\b": "\\b", "\t": "\\t", "\n": "\\n", "\f": "\\f", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


def spelled(ch: str, how: str) -> str:
    """One way Turtle may write ch inside a short string."""
    if how == "raw" and ch not in '"\\\n\r':
        return ch
    if how == "echar" and ch in _ECHARS:
        return _ECHARS[ch]
    if how == "U" or ord(ch) > 0xFFFF:
        return "\\U%08X" % ord(ch)
    return ("\\u%04x" if how == "lower" else "\\u%04X") % ord(ch)


class TestParsedSpellings:
    @given(st.lists(st.tuples(_CHARS, st.sampled_from(["raw", "echar", "U", "u", "lower"])), max_size=20), st.sampled_from([None, "en"]))
    @example([(ch, "u") for ch in _ECHARS] + [("\x0b", "lower"), ("\x7f", "U")], None)
    def test_any_spelling_parses_to_the_canonical_term(self, drawn, tag):
        lexical = "".join(ch for ch, _ in drawn)
        body = "".join(spelled(ch, how) for ch, how in drawn)
        graph = parse_turtle(f'<http://x/s> <http://x/p> "{body}"{"@" + tag if tag else ""} .\n')
        (obj,) = graph.objects(Iri("http://x/s"), Iri("http://x/p"))
        assert obj == Literal(lexical, language=tag) and obj.lexical == lexical


# Turtle's ECHARs: the canonical ones plus \'
_TURTLE_ECHARS = {**_ECHARS, "'": "\\'"}
_UCHAR_FORMS = ("\\u%04X", "\\u%04x", "\\U%08X", "\\U%08x")


def written_forms():
    """Each ECHAR, each UCHAR of U+0000..U+00FF in both hex cases, and each raw C0 control, DEL and quote."""
    yield from _TURTLE_ECHARS.values()
    for code in range(0x100):
        for form in _UCHAR_FORMS:
            yield form % code
    yield from (chr(c) for c in (*range(0x20), 0x7F))
    yield '"'


def uchar(form: str, ch: str) -> str:
    """ch as a UCHAR in form, or as \\U when it lies beyond \\u's reach."""
    return (form if ord(ch) <= 0xFFFF else "\\U%08X") % ord(ch)


class TestCanonicalEscapes:
    """canonical_escapes skips re-escaping a body it finds canonical; it must agree with the full rewrite."""

    def test_every_escape_and_raw_control_agrees_with_the_rewrite(self):
        for form in written_forms():
            # alone, between plain text, and after an escaped backslash, which must not pair with it
            for written in (form, "a" + form + "b", "\\\\" + form, form + form):
                assert canonical_escapes(written) == escape_literal(_unescape(written)), written

    def test_a_canonical_body_is_returned_as_is(self):
        for ch in (*map(chr, range(0x20)), "\x7f", '"', "\\", "é"):
            for escaped in (escape_literal(ch), escape_literal("a" + ch * 2 + "u0001")):
                assert canonical_escapes(escaped) is escaped

    @given(
        st.lists(
            st.one_of(
                _CHARS.filter(lambda ch: ch != "\\"),
                st.sampled_from(sorted(_TURTLE_ECHARS.values())),
                st.builds(uchar, st.sampled_from(_UCHAR_FORMS), _CHARS),
            ),
            max_size=20,
        )
    )
    def test_mixed_bodies_agree_with_the_rewrite(self, parts):
        written = "".join(parts)
        assert canonical_escapes(written) == escape_literal(_unescape(written))


class TestTermsAreStrings:
    def test_an_iri_equals_its_bracketed_text(self):
        iri = Iri("http://x")
        assert iri == "<http://x>" and str(iri) == "<http://x>" and iri.value == "http://x"
        assert iri != "http://x"
        assert isinstance(iri, str) and isinstance(Literal("x"), str) and isinstance(BlankNode("b"), str)

    def test_terms_serialise_as_json_strings(self):
        terms = [Iri("http://x"), Literal("a\nb", language="EN"), BlankNode("b1")]
        assert json.loads(json.dumps(terms)) == ["<http://x>", '"a\\nb"@en', "_:b1"]

    def test_terms_hold_no_instance_dict(self):
        for term in (Iri("http://x"), Literal("x"), BlankNode("b")):
            assert not hasattr(term, "__dict__")
