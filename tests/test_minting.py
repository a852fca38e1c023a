"""Deterministic IRI minting and name normalization."""

import re
import unicodedata
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import (
    EmptySlugError,
    InvalidIntervalError,
    Iri,
    MintConfig,
    mint_entity_iri,
    mint_role_iri,
    normalize_name,
    parse_turtle,
)

CFG = MintConfig()
SLUG_OK = st.text(min_size=1, max_size=40).filter(
    lambda s: any(c.isascii() and c.isalnum() for c in s)
)


def nfkd_reference(raw):
    """The folding formula for every name: NFKD, drop combining marks, lowercase, hyphenate."""
    decomposed = unicodedata.normalize("NFKD", raw)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return re.sub(r"[^a-z0-9]+", "-", stripped.lower()).strip("-")


def folded(raw):
    """normalize_name's slug, or "" where it raises EmptySlugError."""
    try:
        return normalize_name(raw)
    except EmptySlugError:
        return ""


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw, slug",
        [
            ("Iñigo Urkullu", "inigo-urkullu"),
            ("  José-María  ", "jose-maria"),
            ("Basque Government", "basque-government"),
            ("ACME   Construction, S.L.", "acme-construction-s-l"),
            ("mäkïnén", "makinen"),
            ("a.b.c", "a-b-c"),
            ("2020 vision", "2020-vision"),
        ],
    )
    def test_examples(self, raw, slug):
        assert normalize_name(raw) == slug

    @pytest.mark.parametrize("raw", ["", "   ", "!!!", "---", "ß"])
    def test_no_ascii_alnum_content_raises(self, raw):
        # no ASCII letter or digit survives folding any of these
        with pytest.raises(EmptySlugError):
            normalize_name(raw)

    @pytest.mark.parametrize("raw", ["!!!", "\u00b4", "\u0301\u0300"])
    def test_empty_slug_error_names_the_raw_name(self, raw):
        with pytest.raises(EmptySlugError, match=re.escape(repr(raw))):
            normalize_name(raw)

    def test_every_ascii_code_point_matches_the_nfkd_formula(self):
        for code in range(128):
            ch = chr(code)
            for raw in (ch, f"a{ch}b", f"{ch}{ch}Z9{ch}"):
                assert folded(raw) == nfkd_reference(raw), repr(raw)

    def test_every_code_point_matches_the_nfkd_formula(self):
        # surrogates included; EmptySlugError exactly where the formula leaves nothing
        def slug_or_none(raw):
            try:
                return normalize_name(raw)
            except EmptySlugError:
                return None

        mismatches = [
            raw
            for ch in map(chr, range(0x110000))
            for raw in (f"a{ch}b", ch, f"A{ch}{ch}1")
            if slug_or_none(raw) != (nfkd_reference(raw) or None)
        ]
        assert mismatches == []

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40))
    def test_ascii_names_match_the_nfkd_formula(self, raw):
        assert folded(raw) == nfkd_reference(raw)

    @given(st.text(max_size=40))
    def test_any_names_match_the_nfkd_formula(self, raw):
        assert folded(raw) == nfkd_reference(raw)

    @given(SLUG_OK)
    def test_idempotent(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once

    @given(SLUG_OK)
    def test_slug_shape(self, raw):
        slug = normalize_name(raw)
        assert slug == slug.lower()
        assert not slug.startswith("-") and not slug.endswith("-")
        assert "--" not in slug
        assert all(c.isdigit() or ("a" <= c <= "z") or c == "-" for c in slug)


class TestMintRoleIri:
    def test_documented_shape(self):
        iri = mint_role_iri(
            CFG,
            "Iñigo Urkullu",
            "president",
            date(2012, 12, 15),
            date(2024, 6, 22),
            "Basque Government",
        )
        assert iri == Iri(
            "http://ehu.eus/tro/data/role/"
            "inigo-urkullu_president_2012-12-15_2024-06-22_basque-government"
        )

    def test_open_end_uses_ongoing(self):
        iri = mint_role_iri(CFG, "Jon Etxeberria", "board member", date(2021, 3, 1), None, "DataWorks")
        assert iri.value.endswith("role/jon-etxeberria_board-member_2021-03-01_ongoing_dataworks")

    def test_deterministic(self):
        args = (CFG, "A B", "chair", date(2020, 1, 1), None, "Org")
        assert mint_role_iri(*args) == mint_role_iri(*args)

    def test_component_changes_change_iri(self):
        base = mint_role_iri(CFG, "A B", "chair", date(2020, 1, 1), date(2021, 1, 1), "Org")
        variants = [
            mint_role_iri(CFG, "A C", "chair", date(2020, 1, 1), date(2021, 1, 1), "Org"),
            mint_role_iri(CFG, "A B", "clerk", date(2020, 1, 1), date(2021, 1, 1), "Org"),
            mint_role_iri(CFG, "A B", "chair", date(2020, 1, 2), date(2021, 1, 1), "Org"),
            mint_role_iri(CFG, "A B", "chair", date(2020, 1, 1), date(2021, 1, 2), "Org"),
            mint_role_iri(CFG, "A B", "chair", date(2020, 1, 1), None, "Org"),
            mint_role_iri(CFG, "A B", "chair", date(2020, 1, 1), date(2021, 1, 1), "Other"),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_end_before_start_rejected(self):
        with pytest.raises(InvalidIntervalError):
            mint_role_iri(CFG, "A B", "chair", date(2021, 1, 1), date(2020, 1, 1), "Org")

    def test_same_day_interval_allowed(self):
        iri = mint_role_iri(CFG, "A B", "chair", date(2021, 1, 1), date(2021, 1, 1), "Org")
        assert "2021-01-01_2021-01-01" in iri.value


class TestMintEntityIri:
    def test_person_and_org_normalize(self):
        assert mint_entity_iri(CFG, "person", "Iñigo Urkullu") == Iri(
            "http://ehu.eus/tro/data/person/inigo-urkullu"
        )
        a = mint_entity_iri(CFG, "org", "ACME Construction")
        b = mint_entity_iri(CFG, "org", "  acme   construction ")
        assert a == b == Iri("http://ehu.eus/tro/data/org/acme-construction")

    def test_contract_key_is_percent_encoded_verbatim(self):
        iri = mint_entity_iri(CFG, "contract", "EXP-2018/0042")
        assert iri == Iri("http://ehu.eus/tro/data/contract/EXP-2018%2F0042")
        # case and spacing are preserved, not slugged
        spaced = mint_entity_iri(CFG, "contract", "Lot 7 (North)")
        assert spaced == Iri("http://ehu.eus/tro/data/contract/Lot%207%20%28North%29")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            mint_entity_iri(CFG, "ship", "Titanic")

    def test_empty_contract_key_rejected(self):
        with pytest.raises(EmptySlugError):
            mint_entity_iri(CFG, "contract", "")

    def test_base_must_end_with_slash(self):
        with pytest.raises(ValueError):
            MintConfig(base=Iri("http://example.org/data"))

    def test_custom_base(self):
        cfg = MintConfig(base=Iri("https://example.org/ids/"))
        assert mint_entity_iri(cfg, "person", "Ana") == Iri("https://example.org/ids/person/ana")

    def test_minted_iris_survive_turtle(self):
        iris = [
            mint_entity_iri(CFG, "contract", "EXP-2018/0042"),
            mint_role_iri(CFG, "Iñigo Urkullu", "president", date(2012, 12, 15), None, "EJ/GV"),
        ]
        for iri in iris:
            g = parse_turtle(f"<{iri.value}> <http://example.org/p> <http://example.org/o> .")
            assert g.match(iri, None, None)
