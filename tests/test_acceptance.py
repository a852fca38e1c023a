"""Acceptance gate: eight end-to-end criteria, one printed line each.

Every test prints "ACCEPTANCE n (name): PASS|FAIL" on the real
terminal (capture disabled) and then fails normally on error, so the
gate is readable even inside a full pytest run.
"""

import random
from datetime import date, timedelta

from trokit import (
    AWARD_TO_LINKED_ORG,
    Graph,
    Iri,
    MintConfig,
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
    detect_conflicts,
    mint_entity_iri,
    mint_role_iri,
    normalize_name,
    parse_contract_csv,
    parse_role_csv,
    parse_turtle,
    serialize_turtle,
    vocabulary_graph,
)
from trokit.cli import run
from trokit.namespaces import EPO, GIST, GR, SCHEMA, TRO, XSD
from trokit.rdf_core import RDF_TYPE

from conftest import FIXTURES, all_triples, inferred, random_coi_graph, random_graph
from test_coi import _finding_key, brute_force_keys


def report_criterion(capsys, number: int, name: str, thunk) -> None:
    """Run one criterion, print its verdict outside capture, re-raise."""
    failure = None
    try:
        thunk()
    except Exception as exc:  # pragma: no cover - the re-raise shows the cause
        failure = exc
    with capsys.disabled():
        verdict = "PASS" if failure is None else "FAIL"
        print(f"\nACCEPTANCE {number} ({name}): {verdict}")
    if failure is not None:
        raise failure


# --- 1: the built-in vocabulary is exactly the published one ----------


def criterion_vocabulary_fidelity():
    v = builtin_vocabulary()
    assert len(v.terms) == 19
    assert len(v.constraints) == 20

    origins = {
        EPO.Contract: "epo",
        GIST.Organization: "gist",
        TRO.Evidence: "tro",
        SCHEMA.Person: "schema",
        TRO.Role: "tro",
        TRO.Commitment: "tro",
    }
    assert {t.iri for t in v.classes()} == set(origins)
    for iri, origin in origins.items():
        assert v.terms[iri].origin == origin

    definitions = {iri: v.terms[iri].definition for iri in origins}
    assert definitions[EPO.Contract].startswith("A voluntary, deliberate, and legally binding")
    assert "Corporation" in definitions[GIST.Organization]
    assert "not legal evidence" in definitions[TRO.Evidence]
    assert "compulsory name" in definitions[SCHEMA.Person]
    assert "function performed by a person" in definitions[TRO.Role]
    assert definitions[TRO.Commitment]

    (disjoint,) = v.disjointness_sets()
    assert disjoint.classes == frozenset(
        {TRO.Commitment, GIST.Organization, TRO.Evidence, SCHEMA.Person}
    )

    required = {(r.on_class, r.prop) for r in v.required_properties()}
    assert required == {
        (SCHEMA.Person, SCHEMA.name),
        (TRO.Evidence, TRO.evidenceURL),
        (TRO.Role, TRO.roleOf),
        (TRO.Role, TRO.roleIn),
        (TRO.Role, TRO.startDate),
        (TRO.Role, TRO.hasEvidence),
    }

    ranges = {r.prop: (r.range, r.range_kind) for r in v.property_ranges()}
    assert len(v.property_ranges()) == 13
    assert ranges[TRO.roleOf] == (SCHEMA.Person, "class")
    assert ranges[TRO.roleIn] == (GIST.Organization, "class")
    assert ranges[TRO.hasEvidence] == (TRO.Evidence, "class")
    assert ranges[TRO.evidenceURL] == (XSD.anyURI, "datatype")
    assert ranges[TRO.startDate] == (XSD.date, "datatype")
    assert ranges[TRO.endDate] == (XSD.date, "datatype")
    assert ranges[TRO.ownerOf] == (GIST.Organization, "class")
    assert ranges[TRO.affiliatedWith] == (GIST.Organization, "class")
    assert ranges[EPO.awardedBy] == (GIST.Organization, "class")
    assert ranges[EPO.awardedTo] == (GIST.Organization, "class")
    assert ranges[EPO.awardDate] == (XSD.date, "datatype")
    assert ranges[GR.amount] == (XSD.decimal, "datatype")
    assert ranges[SCHEMA.name] == (XSD.string, "datatype")

    assert v.subclass_edges() == {}


def test_acceptance_1(capsys):
    report_criterion(capsys, 1, "vocabulary fidelity", criterion_vocabulary_fidelity)


# --- 2: the emitted ontology passes its own validation -----------------


def criterion_vocabulary_self_check():
    v = builtin_vocabulary()
    g = vocabulary_graph(v)
    assert len(g) == 70
    report = check(g, v)
    assert report.counts["error"] == 0, report.to_text()
    assert report.counts["warn"] == 0, report.to_text()


def test_acceptance_2(capsys):
    report_criterion(capsys, 2, "vocabulary graph self-check", criterion_vocabulary_self_check)


# --- 3: Turtle round-trips are lossless --------------------------------


def criterion_round_trip():
    for seed in range(500):
        g = random_graph(random.Random(seed))
        reparsed = parse_turtle(serialize_turtle(g))
        assert canonical_ntriples(reparsed) == canonical_ntriples(g), seed


def test_acceptance_3(capsys):
    report_criterion(capsys, 3, "serialization round-trip", criterion_round_trip)


# --- 4: the rule catalog fires exactly as specified ---------------------


def criterion_violation_catalog():
    vocab = builtin_vocabulary()
    expected = [
        ("disjoint_clash.ttl", "DISJOINT-CLASH", Severity.ERROR, 1),
        ("missing_required.ttl", "MISSING-REQUIRED", Severity.ERROR, 1),
        ("bad_range.ttl", "BAD-RANGE", Severity.ERROR, 1),
        ("bad_date.ttl", "BAD-DATE", Severity.ERROR, 1),
        ("interval_order.ttl", "INTERVAL-ORDER", Severity.ERROR, 1),
        ("unknown_term.ttl", "UNKNOWN-TERM", Severity.WARN, 2),
        ("no_label.ttl", "NO-LABEL", Severity.WARN, 1),
        ("detection_skip.ttl", "DETECTION-SKIP", Severity.WARN, 3),
        ("no_provenance.ttl", "NO-PROVENANCE", Severity.INFO, 1),
        ("no_version.ttl", "NO-VERSION", Severity.INFO, 1),
    ]
    for fixture, rule, severity, count in expected:
        text = (FIXTURES / "violations" / fixture).read_text(encoding="utf-8")
        report = check(parse_turtle(text), vocab)
        got = [(e.rule_id, e.severity) for e in report.entries]
        assert got == [(rule, severity)] * count, (fixture, report.to_text())

    contracts, _ = parse_contract_csv((FIXTURES / "contracts.csv").read_text(encoding="utf-8"))
    roles, _ = parse_role_csv((FIXTURES / "roles.csv").read_text(encoding="utf-8"))
    assert check(build_graph(contracts, roles), vocab).entries == ()


def test_acceptance_4(capsys):
    report_criterion(capsys, 4, "violation catalog", criterion_violation_catalog)


# --- 5: check's inferred typings equal the naive fixpoint ---------------


def criterion_inference_fixpoint():
    classes = [Iri(f"http://example.org/C{i}") for i in range(10)]
    subjects = [Iri(f"http://example.org/s{i}") for i in range(10)]
    foreign = Iri("http://elsewhere.org/Thing")

    def naive(graph: Graph, vocab: Vocabulary) -> set:
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

    for seed in range(200):
        rng = random.Random(10_000 + seed)
        n = rng.randrange(2, 10)
        edges = [
            (classes[i], classes[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.25
        ]
        terms = {
            c: VocabTerm(c, TermKind.CLASS, c.value[-2:], "a class") for c in classes
        }
        vocab = Vocabulary(
            terms=terms, constraints=tuple(SubClassOf(a, b) for a, b in edges)
        )
        g = Graph()
        for _ in range(rng.randrange(1, 15)):
            g.insert(
                Triple(rng.choice(subjects), RDF_TYPE, rng.choice(classes[:n] + [foreign]))
            )
        assert inferred(g, vocab) == naive(g, vocab), seed


def test_acceptance_5(capsys):
    report_criterion(capsys, 5, "inference fixpoint", criterion_inference_fixpoint)


# --- 6: detection equals brute force; no false findings -----------------


def criterion_detection_equivalence():
    modes = ("any", "free", "planted")
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        mode = modes[seed % 3]
        g = random_coi_graph(rng, mode=mode)
        found = detect_conflicts(g)
        assert {_finding_key(f) for f in found} == brute_force_keys(g), (seed, mode)
        if mode == "free":
            assert found == [], (seed, mode)

    contracts, _ = parse_contract_csv((FIXTURES / "contracts.csv").read_text(encoding="utf-8"))
    roles, _ = parse_role_csv((FIXTURES / "roles.csv").read_text(encoding="utf-8"))
    findings = detect_conflicts(build_graph(contracts, roles))
    assert len(findings) == 1
    assert findings[0].pattern_id == AWARD_TO_LINKED_ORG


def test_acceptance_6(capsys):
    report_criterion(capsys, 6, "detection equivalence", criterion_detection_equivalence)


# --- 7: minting is deterministic and collision-free ---------------------


def criterion_minting():
    cfg = MintConfig()
    assert mint_role_iri(
        cfg,
        "Iñigo Urkullu",
        "president",
        date(2012, 12, 15),
        date(2024, 6, 22),
        "Basque Government",
    ) == Iri(
        "http://ehu.eus/tro/data/role/"
        "inigo-urkullu_president_2012-12-15_2024-06-22_basque-government"
    )
    assert mint_entity_iri(cfg, "person", "Iñigo Urkullu") == Iri(
        "http://ehu.eus/tro/data/person/inigo-urkullu"
    )
    assert mint_entity_iri(cfg, "contract", "EXP-2018/0042") == Iri(
        "http://ehu.eus/tro/data/contract/EXP-2018%2F0042"
    )

    people = [
        "Iñigo Urkullu", "José-María Aznar", "Miren Zabala", "Jon Etxeberria",
        "Ana Pérez", "Björn Øster", "Li Wei", "Aitor Elorza",
    ]
    role_types = ["president", "board member", "director", "advisor", "auditor"]
    orgs = ["Basque Government", "Acme Construction", "DataWorks", "Bilbao City Council"]
    # every pool value folds to a distinct slug, so distinct component
    # tuples must give distinct IRIs
    for pool in (people, role_types, orgs):
        assert len({normalize_name(x) for x in pool}) == len(pool)

    seen: dict[Iri, tuple] = {}
    rng = random.Random(31_337)
    for _ in range(1000):
        person = rng.choice(people)
        role_type = rng.choice(role_types)
        org = rng.choice(orgs)
        start = date(2010, 1, 1) + timedelta(days=rng.randrange(3000))
        end = None if rng.random() < 0.3 else start + timedelta(days=rng.randrange(2000))
        iri = mint_role_iri(cfg, person, role_type, start, end, org)
        assert iri == mint_role_iri(cfg, person, role_type, start, end, org)
        key = (
            normalize_name(person),
            normalize_name(role_type),
            start.isoformat(),
            end.isoformat() if end else "ongoing",
            normalize_name(org),
        )
        assert seen.setdefault(iri, key) == key, iri
    assert len(seen) == len(set(seen.values()))


def test_acceptance_7(capsys):
    report_criterion(capsys, 7, "minting determinism", criterion_minting)


# --- 8: the CLI pipeline reproduces the gold findings byte for byte -----


def criterion_pipeline_gold(tmp_path):
    import io

    graph_path = tmp_path / "graph.ttl"
    findings_path = tmp_path / "findings.json"

    out, err = io.StringIO(), io.StringIO()
    code = run(
        [
            "ingest",
            "--contracts", str(FIXTURES / "contracts.csv"),
            "--roles", str(FIXTURES / "roles.csv"),
            "--out", str(graph_path),
        ],
        out=out,
        err=err,
    )
    assert code == 0, err.getvalue()

    code = run(["validate", "--in", str(graph_path)], out=out, err=err)
    assert code == 0, err.getvalue()

    code = run(
        ["detect", "--in", str(graph_path), "--out", str(findings_path)], out=out, err=err
    )
    assert code == 0, err.getvalue()
    gold = (FIXTURES / "gold" / "findings.json").read_bytes()
    assert findings_path.read_bytes() == gold


def test_acceptance_8(capsys, tmp_path):
    report_criterion(capsys, 8, "pipeline gold output", lambda: criterion_pipeline_gold(tmp_path))
