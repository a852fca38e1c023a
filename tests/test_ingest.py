"""CSV ingestion: row acceptance, triple shapes, graph assembly."""

from datetime import date

import pytest

from trokit import (
    CONTRACT_HEADER,
    ROLE_HEADER,
    CsvSyntaxError,
    HeaderMismatchError,
    Iri,
    Literal,
    MintConfig,
    Severity,
    Triple,
    build_graph,
    builtin_vocabulary,
    canonical_ntriples,
    check,
    contract_to_triples,
    parse_contract_csv,
    parse_role_csv,
    role_to_triples,
)
from trokit.namespaces import DC, DCTERMS, EPO, GIST, GR, SCHEMA, TRO
from trokit.rdf_core import RDF_TYPE, XSD_ANY_URI, XSD_DATE, XSD_DECIMAL, BlankNode

from conftest import FIXTURES

CFG = MintConfig()
DATA = "http://ehu.eus/tro/data/"


def contract_rows(*rows: str) -> str:
    return ",".join(CONTRACT_HEADER) + "\n" + "\n".join(rows) + "\n"


def role_rows(*rows: str) -> str:
    return ",".join(ROLE_HEADER) + "\n" + "\n".join(rows) + "\n"


GOOD_CONTRACT = "C-1,Works,Alpha Org,Beta Org,2020-01-01,100.00,https://example.org/c1"
GOOD_ROLE = (
    "Ana Mendez,director,Alpha Org,2019-01-01,,,,"
    "https://example.org/e1,Profile,Portal,2020-01-01"
)


class TestHeaders:
    def test_contract_header_mismatch(self):
        with pytest.raises(HeaderMismatchError) as exc:
            parse_contract_csv("id,title\nx,y\n")
        assert exc.value.expected == CONTRACT_HEADER
        assert exc.value.actual == ["id", "title"]

    def test_empty_file(self):
        with pytest.raises(HeaderMismatchError) as exc:
            parse_role_csv("")
        assert exc.value.actual is None

    def test_utf8_bom_before_contract_header(self):
        records, report = parse_contract_csv("\ufeff" + contract_rows(GOOD_CONTRACT))
        assert report.accepted == 1 and records[0].contract_id == "C-1"
        assert parse_contract_csv("\ufeff" + contract_rows("bad row"))[1].rejected[0].line == 2

    def test_utf8_bom_before_role_header(self):
        records, report = parse_role_csv("\ufeff" + role_rows(GOOD_ROLE))
        assert report.accepted == 1 and records[0].person_name == "Ana Mendez"

    def test_header_only_is_fine(self):
        records, report = parse_contract_csv(",".join(CONTRACT_HEADER) + "\n")
        assert records == [] and report.total == 0

    @pytest.mark.parametrize("parse, rows", [(parse_contract_csv, contract_rows), (parse_role_csv, role_rows)])
    def test_a_field_over_the_csv_size_limit_is_a_located_error(self, parse, rows):
        good = GOOD_CONTRACT if parse is parse_contract_csv else GOOD_ROLE
        huge = good.replace(",", "," + "x" * 200_000, 1)
        with pytest.raises(CsvSyntaxError) as exc:
            parse(rows(good, huge, good))
        assert str(exc.value) == "line 3: field larger than field limit (131072)"
        with pytest.raises(CsvSyntaxError, match="^line 1: field larger"):
            parse("x" * 200_000 + "\n" + good)


class TestContractRows:
    def test_fixture_accepted(self, contracts_csv):
        records, report = parse_contract_csv(contracts_csv)
        assert report.accepted == 2 and report.rejected == ()
        first = records[0]
        assert first.contract_id == "EXP-2018/0042"
        assert first.title == "Road maintenance services"
        assert first.awarding_org == "Basque Government"
        assert first.awarded_org == "Acme Construction"
        assert first.award_date == date(2018, 3, 1)
        assert first.amount == "250000.00"  # raw lexical form preserved
        assert first.source_url == "https://registry.example.org/tenders/EXP-2018-0042"

    @pytest.mark.parametrize(
        "bad_row, fragment",
        [
            ("C-1,T,Alpha,Beta,2020-01-01,-5,https://e.org/x", "negative"),
            ("C-1,T,Alpha,Beta,2020-01-01,12 euros,https://e.org/x", "not a decimal number"),
            ("C-1,T,Alpha,Beta,2020-13-01,10,https://e.org/x", "award_date"),
            ("C-1,T,Alpha,Beta,soon,10,https://e.org/x", "award_date"),
            (",T,Alpha,Beta,2020-01-01,10,https://e.org/x", "contract_id is empty"),
            ("C-1,T,,Beta,2020-01-01,10,https://e.org/x", "awarding_org is empty"),
            ("C-1,T,Alpha,!!!,2020-01-01,10,https://e.org/x", "awarded_org"),
            ("C-1,T,Alpha,Beta,2020-01-01,10,not-an-iri", "source_url"),
            ("C-1,T,Alpha,Beta,2020-01-01,10", "expected 7 fields, got 6"),
        ],
    )
    def test_rejections(self, bad_row, fragment):
        records, report = parse_contract_csv(contract_rows(bad_row))
        assert records == []
        assert len(report.rejected) == 1
        assert fragment in report.rejected[0].reason

    @pytest.mark.parametrize(
        "amount", ["Infinity", "-Infinity", "NaN", "1e5", " 12 ", "1_000", "١٢", "", "+", ".", "-."]
    )
    def test_amount_outside_xsd_decimal_lexical_form(self, amount):
        records, report = parse_contract_csv(
            contract_rows(f"C-1,T,Alpha,Beta,2020-01-01,{amount},https://e.org/x")
        )
        assert records == []
        assert [r.reason for r in report.rejected] == [f"amount_eur {amount!r} is not a decimal number"]

    @pytest.mark.parametrize("amount", ["-0", "5.", ".5", "+12.50", "0", "007.10"])
    def test_amount_kept_as_written(self, amount):
        records, report = parse_contract_csv(
            contract_rows(f"C-1,T,Alpha,Beta,2020-01-01,{amount},https://e.org/x")
        )
        assert report.rejected == () and records[0].amount == amount

    def test_corpus_amount_breakers_keep_their_reasons(self):
        _, report = parse_contract_csv(
            contract_rows(
                "C-1,T,Alpha,Beta,2020-01-01,-1500.00,https://e.org/x",
                'C-2,T,Alpha,Beta,2020-01-01,"12,5",https://e.org/x',
            )
        )
        assert [r.reason for r in report.rejected] == [
            "amount_eur '-1500.00' is negative",
            "amount_eur '12,5' is not a decimal number",
        ]

    def test_rejected_rows_carry_line_numbers(self):
        text = contract_rows(GOOD_CONTRACT, "bad row", GOOD_CONTRACT)
        records, report = parse_contract_csv(text)
        assert report.accepted == 2
        assert [r.line for r in report.rejected] == [3]

    def test_quoted_comma_title(self):
        row = 'C-9,"Roads, bridges and tunnels",Alpha,Beta,2020-01-01,10,https://e.org/x'
        records, _ = parse_contract_csv(contract_rows(row))
        assert records[0].title == "Roads, bridges and tunnels"

    def test_empty_title_allowed(self):
        records, report = parse_contract_csv(
            contract_rows("C-1,,Alpha,Beta,2020-01-01,10,https://e.org/x")
        )
        assert report.accepted == 1 and records[0].title == ""


class TestRoleRows:
    def test_fixture_accepted(self, roles_csv):
        records, report = parse_role_csv(roles_csv)
        assert report.accepted == 3 and report.rejected == ()
        zabala, urkullu, etxeberria = records
        assert zabala.relation == "owner" and zabala.related_org == "Acme Construction"
        assert zabala.end == date(2020, 12, 31)
        assert urkullu.relation is None and urkullu.related_org is None
        assert etxeberria.end is None  # open-ended role

    @pytest.mark.parametrize(
        "bad_row, fragment",
        [
            # relation and related_org must travel together
            (
                "Ana,chair,Alpha,2019-01-01,,owner,,https://e.org/x,T,P,2020-01-01",
                "must be given together",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,,Beta,https://e.org/x,T,P,2020-01-01",
                "must be given together",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,director,Beta,https://e.org/x,T,P,2020-01-01",
                "relation 'director'",
            ),
            (
                "Ana,chair,Alpha,2020-01-01,2019-01-01,,,https://e.org/x,T,P,2020-01-01",
                "precedes start_date",
            ),
            ("Ana,chair,Alpha,yesterday,,,,https://e.org/x,T,P,2020-01-01", "start_date"),
            (",chair,Alpha,2019-01-01,,,,https://e.org/x,T,P,2020-01-01", "person_name is empty"),
            ("Ana,chair,Alpha,2019-01-01,,,,nope,T,P,2020-01-01", "evidence_url"),
            ("Ana,chair,Alpha,2019-01-01,,,,https://e.org/x,T,P,someday", "evidence_date"),
            ("Ana,chair,Alpha,2019-01-01", "expected 11 fields, got 4"),
        ],
    )
    def test_rejections(self, bad_row, fragment):
        records, report = parse_role_csv(role_rows(bad_row))
        assert records == []
        assert fragment in report.rejected[0].reason

    def test_same_day_role_allowed(self):
        row = "Ana,chair,Alpha,2019-01-01,2019-01-01,,,https://e.org/x,T,P,2020-01-01"
        _, report = parse_role_csv(role_rows(row))
        assert report.accepted == 1


class TestReasonOrder:
    """A row with several faults is rejected once, for the first failing check."""

    @pytest.mark.parametrize(
        "bad_row, reason",
        [
            # every emptiness check runs before any slug check
            ("C-1,T,***,,2020-01-01,10,https://e.org/x", "awarded_org is empty"),
            (",T,***,Beta,soon,-5,nope", "contract_id is empty"),
            (
                "C-1,T,Alpha,***,soon,-5,nope",
                "awarded_org '***' has no usable characters for an identifier",
            ),
            ("C-1,T,Alpha,Beta,soon,-5,nope", "award_date 'soon' is not a YYYY-MM-DD date"),
            ("C-1,T,Alpha,Beta,2020-01-01,-5,nope", "amount_eur '-5' is negative"),
            (
                "C-1,T,Alpha,Beta,2020-01-01,12 euros,nope",
                "amount_eur '12 euros' is not a decimal number",
            ),
            # a wrong field count beats every other fault
            (",T,,,soon,x,nope,extra", "expected 7 fields, got 8"),
            (",T,***", "expected 7 fields, got 3"),
        ],
    )
    def test_contract(self, bad_row, reason):
        _, report = parse_contract_csv(contract_rows(bad_row))
        assert [(r.line, r.reason) for r in report.rejected] == [(2, reason)]

    @pytest.mark.parametrize(
        "bad_row, reason",
        [
            # each name field is checked for emptiness and slug in turn
            (
                "???,chair,,2019-01-01,,,,https://e.org/x,T,P,2020-01-01",
                "person_name '???' has no usable characters for an identifier",
            ),
            (
                "Ana,***,,2019-01-01,,,,https://e.org/x,T,P,2020-01-01",
                "role_type '***' has no usable characters for an identifier",
            ),
            (
                "Ana,chair,Alpha,yesterday,,,,nope,T,P,2020-01-01",
                "start_date 'yesterday' is not a YYYY-MM-DD date",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,bad,,,nope,T,P,someday",
                "end_date 'bad' is not a YYYY-MM-DD date",
            ),
            (
                "Ana,chair,Alpha,2020-01-01,2019-01-01,director,,nope,T,P,someday",
                "end_date '2019-01-01' precedes start_date '2020-01-01'",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,director,,nope,T,P,someday",
                "relation 'director' is not one of ('owner', 'affiliated') or empty",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,owner,,nope,T,P,someday",
                "relation and related_org must be given together",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,owner,***,nope,T,P,someday",
                "related_org '***' has no usable characters for an identifier",
            ),
            (
                "Ana,chair,Alpha,2019-01-01,,,,nope,T,P,someday",
                "evidence_url 'nope' is not a valid IRI",
            ),
            (",,,bad,bad,bad,***,nope,T,P,someday,extra", "expected 11 fields, got 12"),
            ("???,chair", "expected 11 fields, got 2"),
        ],
    )
    def test_role(self, bad_row, reason):
        _, report = parse_role_csv(role_rows(bad_row))
        assert [(r.line, r.reason) for r in report.rejected] == [(2, reason)]

    def test_lines_after_blank_line_and_multiline_field(self):
        # a rejected row is located at the physical line it ends on
        text = contract_rows(
            GOOD_CONTRACT,
            "",
            "bad row",
            'C-2,"two\nlines",Alpha,Beta,2020-01-01,10,nope',
            "bad row",
            "",
            GOOD_CONTRACT,
            "x",
        )
        records, report = parse_contract_csv(text)
        assert len(records) == report.accepted == 2
        assert [(r.line, r.reason) for r in report.rejected] == [
            (4, "expected 7 fields, got 1"),
            (6, "source_url 'nope' is not a valid IRI"),
            (7, "expected 7 fields, got 1"),
            (10, "expected 7 fields, got 1"),
        ]


class TestContractTriples:
    def test_exact_shape(self, contracts_csv):
        records, _ = parse_contract_csv(contracts_csv)
        contract = Iri(DATA + "contract/EXP-2018%2F0042")
        by_org = Iri(DATA + "org/basque-government")
        to_org = Iri(DATA + "org/acme-construction")
        evidence = Iri(DATA + "evidence/https-registry-example-org-tenders-exp-2018-0042")
        url = "https://registry.example.org/tenders/EXP-2018-0042"
        expected = {
            Triple(contract, RDF_TYPE, EPO.Contract),
            Triple(contract, DCTERMS.title, Literal("Road maintenance services")),
            Triple(contract, EPO.awardDate, Literal("2018-03-01", XSD_DATE)),
            Triple(contract, GR.amount, Literal("250000.00", XSD_DECIMAL)),
            Triple(contract, EPO.awardedBy, by_org),
            Triple(contract, EPO.awardedTo, to_org),
            Triple(contract, TRO.hasEvidence, evidence),
            Triple(by_org, RDF_TYPE, GIST.Organization),
            Triple(by_org, SCHEMA.name, Literal("Basque Government")),
            Triple(to_org, RDF_TYPE, GIST.Organization),
            Triple(to_org, SCHEMA.name, Literal("Acme Construction")),
            Triple(evidence, RDF_TYPE, TRO.Evidence),
            Triple(evidence, TRO.evidenceURL, Literal(url, XSD_ANY_URI)),
        }
        assert contract_to_triples(records[0], CFG) == expected

    def test_matches_gold_ntriples(self, contracts_csv):
        records, _ = parse_contract_csv(contracts_csv)
        from trokit.rdf_core import Graph

        g = Graph()
        g.update(contract_to_triples(records[0], CFG))
        gold = (FIXTURES / "gold" / "contract_record.nt").read_text(encoding="utf-8")
        assert canonical_ntriples(g) == gold

    def test_shared_org_across_contracts(self, contracts_csv):
        records, _ = parse_contract_csv(contracts_csv)
        same_to = contracts_csv.replace("Bilbao City Council", "Basque Government")
        records2, _ = parse_contract_csv(same_to)
        t1 = contract_to_triples(records2[0], CFG)
        t2 = contract_to_triples(records2[1], CFG)
        assert Triple(Iri(DATA + "org/basque-government"), RDF_TYPE, GIST.Organization) in t1 & t2


class TestRoleTriples:
    def test_minimal_role_is_fourteen_triples(self):
        records, _ = parse_role_csv(role_rows(GOOD_ROLE))
        triples = role_to_triples(records[0], CFG)
        assert len(triples) == 14
        assert not any(t.predicate == TRO.endDate for t in triples)
        assert not any(t.predicate in (TRO.ownerOf, TRO.affiliatedWith) for t in triples)

    def test_end_date_adds_one_triple(self):
        row = GOOD_ROLE.replace("2019-01-01,,", "2019-01-01,2020-06-30,")
        records, _ = parse_role_csv(role_rows(row))
        triples = role_to_triples(records[0], CFG)
        role = Iri(DATA + "role/ana-mendez_director_2019-01-01_2020-06-30_alpha-org")
        assert len(triples) == 15
        assert Triple(role, TRO.endDate, Literal("2020-06-30", XSD_DATE)) in triples

    def test_owner_relation(self):
        row = (
            "Ana Mendez,director,Alpha Org,2019-01-01,,owner,Gamma Org,"
            "https://example.org/e1,Profile,Portal,2020-01-01"
        )
        records, _ = parse_role_csv(role_rows(row))
        triples = role_to_triples(records[0], CFG)
        person = Iri(DATA + "person/ana-mendez")
        gamma = Iri(DATA + "org/gamma-org")
        owner_links = [t for t in triples if t.predicate == TRO.ownerOf]
        assert owner_links == [Triple(person, TRO.ownerOf, gamma)]
        assert Triple(gamma, SCHEMA.name, Literal("Gamma Org")) in triples
        assert len(triples) == 17  # 14 + related org (2) + link (1)

    def test_affiliated_relation(self):
        row = (
            "Ana Mendez,director,Alpha Org,2019-01-01,,affiliated,Gamma Org,"
            "https://example.org/e1,Profile,Portal,2020-01-01"
        )
        records, _ = parse_role_csv(role_rows(row))
        triples = role_to_triples(records[0], CFG)
        assert any(t.predicate == TRO.affiliatedWith for t in triples)
        assert not any(t.predicate == TRO.ownerOf for t in triples)

    def test_role_org_is_typed_and_named(self):
        records, _ = parse_role_csv(role_rows(GOOD_ROLE))
        triples = role_to_triples(records[0], CFG)
        org = Iri(DATA + "org/alpha-org")
        assert Triple(org, RDF_TYPE, GIST.Organization) in triples
        assert Triple(org, SCHEMA.name, Literal("Alpha Org")) in triples

    def test_evidence_node_keyed_by_all_fields(self):
        base = GOOD_ROLE
        other_title = base.replace(",Profile,", ",Dossier,")
        r1, _ = parse_role_csv(role_rows(base))
        r2, _ = parse_role_csv(role_rows(other_title))
        ev1 = {t.subject for t in role_to_triples(r1[0], CFG) if t.predicate == DCTERMS.title}
        ev2 = {t.subject for t in role_to_triples(r2[0], CFG) if t.predicate == DCTERMS.title}
        assert ev1 and ev2 and ev1 != ev2  # same URL, different doc, different node

    def test_matches_gold_ntriples(self, roles_csv):
        records, _ = parse_role_csv(roles_csv)
        from trokit.rdf_core import Graph

        g = Graph()
        g.update(role_to_triples(records[0], CFG))
        gold = (FIXTURES / "gold" / "role_record.nt").read_text(encoding="utf-8")
        assert canonical_ntriples(g) == gold
        assert len(g) == 18  # end date + owner link + related org

    def test_evidence_dc_date_and_publisher(self, roles_csv):
        records, _ = parse_role_csv(roles_csv)
        triples = role_to_triples(records[0], CFG)
        preds = {t.predicate for t in triples}
        assert DC.date in preds and SCHEMA.publisher in preds


class TestBuildGraph:
    def test_empty_inputs(self):
        g = build_graph([], [])
        assert len(g) == 0
        assert g.prefixes["tro"] == Iri("http://ehu.eus/tro#")

    def test_fixture_graph(self, contracts_csv, roles_csv):
        contracts, _ = parse_contract_csv(contracts_csv)
        roles, _ = parse_role_csv(roles_csv)
        g = build_graph(contracts, roles)
        assert len(g) == 65
        assert not any(
            isinstance(t.subject, BlankNode) or isinstance(t.object, BlankNode) for t in g
        )
        report = check(g, builtin_vocabulary())
        assert report.max_severity() is None or report.max_severity() < Severity.ERROR
        assert report.counts["error"] == 0

    def test_order_invariant(self, contracts_csv, roles_csv):
        contracts, _ = parse_contract_csv(contracts_csv)
        roles, _ = parse_role_csv(roles_csv)
        forward = build_graph(contracts, roles)
        backward = build_graph(list(reversed(contracts)), list(reversed(roles)))
        assert canonical_ntriples(forward) == canonical_ntriples(backward)

    def test_idempotent_merge(self, contracts_csv, roles_csv):
        contracts, _ = parse_contract_csv(contracts_csv)
        roles, _ = parse_role_csv(roles_csv)
        once = build_graph(contracts, roles)
        twice = build_graph(contracts + contracts, roles + roles)
        assert canonical_ntriples(once) == canonical_ntriples(twice)

    def test_custom_base_propagates(self, contracts_csv):
        contracts, _ = parse_contract_csv(contracts_csv)
        g = build_graph(contracts, [], MintConfig(base=Iri("https://example.org/ids/")))
        assert all(
            t.subject.value.startswith("https://example.org/ids/")
            for t in g
            if isinstance(t.subject, Iri)
        )
