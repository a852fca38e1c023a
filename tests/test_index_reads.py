"""trokit's own stages read the graph's indexes; none materialises or copies it.

The two graph builders, ``build_graph`` and ``parse_turtle``, write the
indexes through ``Graph._add`` and construct no ``Triple``.
"""

import io
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import (
    ContractRecord,
    Iri,
    MintConfig,
    RoleEvidenceRecord,
    Triple,
    build_graph,
    builtin_vocabulary,
    canonical_ntriples,
    check,
    contract_to_triples,
    detect_conflicts,
    parse_contract_csv,
    parse_role_csv,
    parse_turtle,
    role_to_triples,
    serialize_turtle,
)
from trokit.cli import run
from trokit.rdf_core import Graph


@pytest.fixture()
def no_materialisation(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the whole graph was materialised or copied")

    for name in ("triples", "copy", "__iter__", "match"):
        monkeypatch.setattr(Graph, name, refuse)


def test_stages_walk_the_indexes(contracts_csv, roles_csv, no_materialisation):
    graph = build_graph(parse_contract_csv(contracts_csv)[0], parse_role_csv(roles_csv)[0])
    assert check(graph, builtin_vocabulary()).entries == ()
    assert detect_conflicts(graph)
    assert serialize_turtle(graph)
    assert canonical_ntriples(graph)


def test_cli_commands_walk_the_indexes(tmp_path, contracts_csv, roles_csv, no_materialisation):
    (tmp_path / "contracts.csv").write_text(contracts_csv, encoding="utf-8")
    (tmp_path / "roles.csv").write_text(roles_csv, encoding="utf-8")
    ttl = str(tmp_path / "graph.ttl")
    commands = [
        ["ingest", "--contracts", str(tmp_path / "contracts.csv"),
         "--roles", str(tmp_path / "roles.csv"), "--out", ttl],
        ["validate", "--in", ttl],
        ["detect", "--in", ttl, "--out", str(tmp_path / "findings.json")],
        ["export", "--in", ttl, "--format", "ntriples", "--out", str(tmp_path / "graph.nt")],
        ["export", "--in", ttl, "--format", "turtle", "--out", str(tmp_path / "again.ttl")],
    ]
    for argv in commands:
        err = io.StringIO()
        assert run(argv, out=io.StringIO(), err=err) == 0, (argv, err.getvalue())


def test_graph_builders_construct_no_triple(contracts_csv, roles_csv, monkeypatch):
    contracts, roles = parse_contract_csv(contracts_csv)[0], parse_role_csv(roles_csv)[0]
    text = serialize_turtle(build_graph(contracts, roles))

    def refuse(self):
        raise AssertionError("a Triple was constructed")

    monkeypatch.setattr(Triple, "__post_init__", refuse)
    graph = build_graph(contracts, roles)
    assert len(parse_turtle(text)) == len(graph) > 0
    with pytest.raises(AssertionError, match="a Triple was constructed"):
        contract_to_triples(contracts[0], MintConfig())


# small pools, so records share people, orgs and evidence and the per-call memos are hit
_NAMES = st.sampled_from(["Ana Mendez", "Iñigo Urkullu", "Acme Construction", "Basque Government", "Data Works"])
_DATES = st.integers(0, 3).map(lambda n: date(2019, 1, 1) + timedelta(days=400 * n))
_URLS = st.sampled_from(["https://example.org/a", "https://example.org/b?x=1"])
_CONTRACTS = st.builds(
    ContractRecord, st.sampled_from(["C-1", "C 2/x", "C-3"]), st.sampled_from(["Works", "Obras"]),
    _NAMES, _NAMES, _DATES, st.sampled_from(["1", "10.50"]), _URLS,
)
_ROLES = st.builds(
    lambda person, role, org, start, days, related, url, title, when: RoleEvidenceRecord(
        person, role, org, start, None if days is None else start + timedelta(days=days),
        None if related is None else related[0], None if related is None else related[1],
        url, title, "Portal", when,
    ),
    _NAMES, st.sampled_from(["director", "board member"]), _NAMES, _DATES, st.none() | st.integers(0, 900),
    st.none() | st.tuples(st.sampled_from(["owner", "affiliated"]), _NAMES), _URLS,
    st.sampled_from(["Profile", "News"]), _DATES,
)


@given(st.lists(_CONTRACTS, max_size=6), st.lists(_ROLES, max_size=6), st.sampled_from(["http://a.example/", "urn:x/"]))
def test_build_graph_is_the_union_of_the_record_triples(contracts, roles, base):
    cfg = MintConfig(Iri(base))
    graph = build_graph(contracts, roles, cfg)
    expected = set().union(
        *(contract_to_triples(c, cfg) for c in contracts), *(role_to_triples(r, cfg) for r in roles)
    )
    assert graph.triples() == expected
    assert len(graph) == len(expected)


def test_build_graph_calls_share_no_minted_iri(contracts_csv, roles_csv):
    contracts, roles = parse_contract_csv(contracts_csv)[0], parse_role_csv(roles_csv)[0]
    bases = ("http://one.example/", "http://two.example/")
    minted = []
    for base in bases:
        graph = build_graph(contracts, roles, MintConfig(Iri(base)))
        nodes = {*graph._spo, *(o for by_object in graph._pos.values() for o in by_object if isinstance(o, Iri))}
        minted.append({n for n in nodes if n.value.startswith(bases)})
        assert minted[-1] and all(n.value.startswith(base) for n in minted[-1])
    assert minted[0].isdisjoint(minted[1])
