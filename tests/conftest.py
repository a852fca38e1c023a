"""Shared fixtures and random generators.

The generators build three kinds of inputs: arbitrary small graphs
(for serialization round-trips), typing graphs over random class
hierarchies (for inference), and record-shaped graphs of people,
roles, orgs, and contracts (for detection). They deliberately emit
some malformed nodes so the skip paths get exercised too.

The helpers below the generators are the tests' own graph operations
and oracles (copy, union, removal, every triple, naive subclass
closures, inferred typings, record triples), so the library keeps
only the API its commands use.
"""

from __future__ import annotations

import functools
import random
import runpy
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest

from trokit import Graph, Iri, Literal, MintConfig, Triple, Vocabulary, default_prefixes, mint_entity_iri
from trokit.ingest import _contract_triples, _role_triples
from trokit.namespaces import EPO, TRO
from trokit.rdf_core import RDF_TYPE, XSD_DATE, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from trokit.validate import _types

FIXTURES = Path(__file__).parent / "fixtures"

_IRI_POOL = [
    "http://example.org/a",
    "http://example.org/b",
    "http://example.org/some/path#frag",
    "https://data.example.com/items/42",
    "http://ehu.eus/tro#Role",
    "urn:uuid:c0ffee00-1234-5678-9abc-def012345678",
    "http://example.org/odd.name-1",
    "http://xn--caf-dma.example/menu",
]

_LEXICAL_POOL = [
    "",
    "plain",
    "two words",
    'with "quotes"',
    "back\\slash",
    "line\nbreak",
    "tab\tand\rreturn",
    "Iñigo Urkullu",
    "ασφάλεια",
    "42",
    "0042",
    "-7",
    "3.14",
    ".5",
    "2020-01-01",
    "not a date",
    "control\x01char",
]

_DATATYPE_POOL = [XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DATE, Iri("http://example.org/dt")]
_LANG_POOL = ["en", "eu", "es", "en-US", "de-CH-1996"]


def random_term(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Iri(rng.choice(_IRI_POOL))
    if kind == 1:
        return Literal(rng.choice(_LEXICAL_POOL), rng.choice(_DATATYPE_POOL))
    return Literal(rng.choice(_LEXICAL_POOL), language=rng.choice(_LANG_POOL))


def random_graph(rng: random.Random, max_triples: int = 200) -> Graph:
    """A blank-node-free graph with a random prefix map."""
    g = Graph()
    for i in range(rng.randrange(4)):
        ns = rng.choice(_IRI_POOL)
        g.prefixes[f"p{i}"] = Iri(ns if ns.endswith(("#", "/")) else ns + "#")
    for _ in range(rng.randrange(max_triples + 1)):
        subject = Iri(rng.choice(_IRI_POOL))
        predicate = Iri(rng.choice(_IRI_POOL))
        g.insert(Triple(subject, predicate, random_term(rng)))
    return g


def random_date(rng: random.Random) -> date:
    return date(2010, 1, 1) + timedelta(days=rng.randrange(3650))


def _date_literal(d: date) -> Literal:
    return Literal(d.isoformat(), XSD_DATE)


def random_coi_graph(rng: random.Random, mode: str = "any") -> Graph:
    """A record-shaped graph of roles, links, and contracts.

    mode "free": no ownership links and each person keeps all roles in
    one org, so neither detection pattern can fire.
    mode "planted": guaranteed to contain at least one award pattern.
    mode "any": anything goes, including malformed role/contract nodes.
    mode "dense": many contracts over few orgs (see _dense_coi_graph).
    """
    if mode == "dense":
        return _dense_coi_graph(rng)
    g = Graph(default_prefixes())
    base = "http://example.org/data/"
    n_people = rng.randrange(1, 8)
    n_orgs = rng.randrange(2, 8)
    people = [Iri(f"{base}person/p{i}") for i in range(n_people)]
    orgs = [Iri(f"{base}org/o{i}") for i in range(n_orgs)]
    evidence = [Iri(f"{base}evidence/e{i}") for i in range(1, 6)]

    home_org = {p: rng.choice(orgs) for p in people}

    role_count = 0
    for person in people:
        for _ in range(rng.randrange(3)):
            role = Iri(f"{base}role/r{role_count}")
            role_count += 1
            org = home_org[person] if mode == "free" else rng.choice(orgs)
            g.insert(Triple(role, TRO.roleOf, person))
            g.insert(Triple(role, TRO.roleIn, org))
            start = random_date(rng)
            g.insert(Triple(role, TRO.startDate, _date_literal(start)))
            if rng.random() < 0.6:
                g.insert(
                    Triple(role, TRO.endDate, _date_literal(start + timedelta(days=rng.randrange(1500))))
                )
            if mode != "any" or rng.random() < 0.9:
                g.insert(Triple(role, TRO.hasEvidence, rng.choice(evidence)))
            if mode == "any" and rng.random() < 0.15:
                # second, conflicting start date: the role must be skipped
                g.insert(Triple(role, TRO.startDate, _date_literal(start + timedelta(days=1))))
            if mode == "any" and rng.random() < 0.1:
                g.insert(Triple(role, TRO.startDate, Literal("yesterday", XSD_DATE)))

    if mode != "free":
        for person in people:
            for _ in range(rng.randrange(2)):
                prop = rng.choice([TRO.ownerOf, TRO.affiliatedWith])
                g.insert(Triple(person, prop, rng.choice(orgs)))

    for i in range(rng.randrange(4)):
        contract = Iri(f"{base}contract/c{i}")
        g.insert(Triple(contract, EPO.awardedBy, rng.choice(orgs)))
        g.insert(Triple(contract, EPO.awardedTo, rng.choice(orgs)))
        g.insert(Triple(contract, EPO.awardDate, _date_literal(random_date(rng))))
        if rng.random() < 0.7:
            g.insert(Triple(contract, TRO.hasEvidence, rng.choice(evidence)))
        if mode == "any" and rng.random() < 0.1:
            g.insert(Triple(contract, EPO.awardDate, Literal("soon", XSD_DATE)))

    if mode == "planted":
        person, gov, acme = people[0], orgs[0], orgs[1]
        role = Iri(f"{base}role/planted")
        contract = Iri(f"{base}contract/planted")
        awarded = date(2018, 3, 1)
        g.insert(Triple(role, TRO.roleOf, person))
        g.insert(Triple(role, TRO.roleIn, gov))
        g.insert(Triple(role, TRO.startDate, _date_literal(awarded - timedelta(days=400))))
        g.insert(Triple(role, TRO.endDate, _date_literal(awarded + timedelta(days=400))))
        g.insert(Triple(role, TRO.hasEvidence, evidence[0]))
        g.insert(Triple(contract, EPO.awardedBy, gov))
        g.insert(Triple(contract, EPO.awardedTo, acme))
        g.insert(Triple(contract, EPO.awardDate, _date_literal(awarded)))
        g.insert(Triple(person, TRO.ownerOf, acme))
    return g


def _dense_coi_graph(rng: random.Random) -> Graph:
    """Many contracts per org and per org pair, with dates that tie.

    20-60 contracts over 2-4 orgs, some with two awarders or two
    winners; winners are drawn apart from awarders, so many contracts
    are self-awards. Role and award dates come from one small pool, so
    awards share dates and fall exactly on role start and end dates; a
    third of the roles are open-ended. With this few orgs, contracts run
    both ways between most org pairs.
    """
    g = Graph(default_prefixes())
    base = "http://example.org/data/"
    pool = [date(2016, 1, 1) + timedelta(days=90 * i) for i in range(8)]
    orgs = [Iri(f"{base}org/o{i}") for i in range(rng.randrange(2, 5))]
    people = [Iri(f"{base}person/p{i}") for i in range(rng.randrange(1, 4))]

    role_count = 0
    for person in people:
        for org in rng.sample(orgs, rng.randrange(1, len(orgs) + 1)):
            for _ in range(rng.randrange(1, 3)):
                role = Iri(f"{base}role/r{role_count}")
                role_count += 1
                g.insert(Triple(role, TRO.roleOf, person))
                g.insert(Triple(role, TRO.roleIn, org))
                start = rng.randrange(len(pool))
                g.insert(Triple(role, TRO.startDate, _date_literal(pool[start])))
                if rng.random() < 0.67:
                    end = pool[rng.randrange(start, len(pool))]
                    g.insert(Triple(role, TRO.endDate, _date_literal(end)))
                g.insert(Triple(role, TRO.hasEvidence, Iri(f"{base}evidence/r{rng.randrange(3)}")))
        for org in rng.sample(orgs, rng.randrange(len(orgs))):
            g.insert(Triple(person, rng.choice([TRO.ownerOf, TRO.affiliatedWith]), org))

    for i in range(rng.randrange(20, 61)):
        contract = Iri(f"{base}contract/c{i}")
        awarders = rng.sample(orgs, 2 if rng.random() < 0.2 else 1)
        winners = rng.sample(orgs, 2 if rng.random() < 0.2 else 1)
        for org in awarders:
            g.insert(Triple(contract, EPO.awardedBy, org))
        for org in winners:
            g.insert(Triple(contract, EPO.awardedTo, org))
        g.insert(Triple(contract, EPO.awardDate, _date_literal(rng.choice(pool))))
        if rng.random() < 0.7:
            g.insert(Triple(contract, TRO.hasEvidence, Iri(f"{base}evidence/c{i}")))
    return g


def graph_of(triples, prefixes: dict[str, Iri] | None = None) -> Graph:
    """A new graph holding the triples: the tests' copy, union and removal."""
    g = Graph(prefixes)
    for t in triples:
        g.insert(t)
    return g


def without(graph: Graph, *triples: Triple) -> Graph:
    """A new graph holding the graph's triples and prefixes, less the given triples."""
    return graph_of(all_triples(graph).difference(triples), graph.prefixes)


def all_triples(graph: Graph) -> set[Triple]:
    """Every triple, read from the SPO index directly, through neither match nor iteration."""
    return {Triple(s, p, o) for s, po in graph._spo.items() for p, objs in po.items() for o in objs}


def naive_closures(vocab: Vocabulary) -> dict[Iri, set[Iri]]:
    """Each registered class with every class reachable from it by subclass_edges(), itself included."""
    edges = vocab.subclass_edges()
    closures = {}
    for term in vocab.classes():
        seen, todo = {term.iri}, [term.iri]
        while todo:
            for sup in edges.get(todo.pop(), ()):
                if sup not in seen:
                    seen.add(sup)
                    todo.append(sup)
        closures[term.iri] = seen
    return closures


def inferred(graph: Graph, vocab: Vocabulary) -> set[Triple]:
    """The graph's triples plus a typing for each class of each node in the types map check reads."""
    typings = {Triple(node, RDF_TYPE, cls) for node, classes in _types(graph, vocab).items() for cls in classes}
    return all_triples(graph) | typings


def record_triples(contracts, roles, cfg: MintConfig = MintConfig()) -> set[Triple]:
    """The union of each record's triples, minted and built afresh per record, with no memo."""
    iri = functools.partial(mint_entity_iri, cfg)
    return {
        *(Triple(*t) for c in contracts for t in _contract_triples(c, iri, Literal)),
        *(Triple(*t) for r in roles for t in _role_triples(r, cfg, iri, Literal)),
    }


@pytest.fixture(scope="session")
def contracts_csv() -> str:
    return (FIXTURES / "contracts.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def roles_csv() -> str:
    return (FIXTURES / "roles.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus():
    """perfbench's corpus generator, read from its file: it imports nothing from trokit."""
    return SimpleNamespace(**runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py")))
