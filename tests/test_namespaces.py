"""Namespace IRI factories."""

import copy

import pytest

from trokit import Iri
from trokit.namespaces import TRO, Namespace


class TestNamespace:
    def test_attribute_and_item_access_mint_the_same_iri(self):
        assert TRO.roleOf == TRO["roleOf"] == Iri("http://ehu.eus/tro#roleOf")

    def test_repeated_access_returns_the_cached_iri(self):
        ns = Namespace("http://example.org/ns#")
        first = ns.thing
        assert ns.thing == first and ns.thing is first
        assert ns["thing"] is first
        assert ns["not-an-identifier"] is ns["not-an-identifier"]

    def test_namespaces_do_not_share_a_cache(self):
        a, b = Namespace("http://example.org/a#"), Namespace("http://example.org/b#")
        assert a.x == Iri("http://example.org/a#x")
        assert b.x == Iri("http://example.org/b#x")

    def test_private_names_raise_attribute_error(self):
        ns = Namespace("http://example.org/ns#")
        for name in ("_hidden", "__deepcopy__", "_cache_miss"):
            with pytest.raises(AttributeError):
                getattr(ns, name)
        assert not hasattr(ns, "__wrapped__")
        assert copy.copy(ns).x == ns.x

    def test_invalid_names_are_not_cached(self):
        ns = Namespace("http://example.org/ns#")
        for _ in range(2):
            with pytest.raises(ValueError):
                ns["has space"]
