"""Flat-record ingestion: tender registry and news-evidence CSV to triples.

Two fixed CSV schemas (headers must match exactly). A malformed header
aborts; malformed rows never do -- they are collected with a reason in
the IngestReport while the remaining rows proceed. Row validation also
pre-checks that every name the row will mint an IRI from survives slug
folding, so record-to-triple conversion cannot fail later.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, InvalidOperation

from .minting import EmptySlugError, MintConfig, mint_entity_iri, mint_role_iri, normalize_name
from .namespaces import DC, DCTERMS, EPO, GIST, GR, SCHEMA, TRO, default_prefixes
from .rdf_core import (
    RDF_TYPE,
    XSD_ANY_URI,
    XSD_DATE,
    XSD_DECIMAL,
    Graph,
    Iri,
    Literal,
    Triple,
)
from .util import parse_iso_date

CONTRACT_HEADER = [
    "contract_id",
    "title",
    "awarding_org",
    "awarded_org",
    "award_date",
    "amount_eur",
    "source_url",
]
ROLE_HEADER = [
    "person_name",
    "role_type",
    "org",
    "start_date",
    "end_date",
    "relation",
    "related_org",
    "evidence_url",
    "evidence_title",
    "publisher",
    "evidence_date",
]

RELATIONS = ("owner", "affiliated")


class HeaderMismatchError(ValueError):
    def __init__(self, expected: list[str], actual: list[str] | None) -> None:
        got = ",".join(actual) if actual is not None else "<empty file>"
        super().__init__(f"header mismatch: expected {','.join(expected)!r}, got {got!r}")
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True, slots=True)
class ContractRecord:
    contract_id: str
    title: str
    awarding_org: str
    awarded_org: str
    award_date: date
    amount: str  # raw decimal lexical form, validated non-negative
    source_url: str


@dataclass(frozen=True, slots=True)
class RoleEvidenceRecord:
    person_name: str
    role_type: str
    org: str
    start: date
    end: date | None
    relation: str | None  # "owner" | "affiliated"
    related_org: str | None
    evidence_url: str
    evidence_title: str
    publisher: str
    evidence_date: date


@dataclass(frozen=True, slots=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True, slots=True)
class IngestReport:
    accepted: int
    rejected: tuple[RejectedRow, ...]

    @property
    def total(self) -> int:
        return self.accepted + len(self.rejected)


def _rows(text: str, expected_header: list[str]):
    # Excel's "CSV UTF-8" export starts with a byte order mark
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        header = next(reader)
    except StopIteration:
        raise HeaderMismatchError(expected_header, None) from None
    if header != expected_header:
        raise HeaderMismatchError(expected_header, header)
    for row in reader:
        if not row:
            continue
        yield reader.line_num, row


def _sluggable(value: str, field: str) -> str | None:
    """Reason string when value cannot become an IRI component."""
    try:
        normalize_name(value)
    except EmptySlugError:
        return f"{field} {value!r} has no usable characters for an identifier"
    return None


def parse_contract_csv(text: str) -> tuple[list[ContractRecord], IngestReport]:
    records: list[ContractRecord] = []
    rejected: list[RejectedRow] = []
    for line, row in _rows(text, CONTRACT_HEADER):
        reason = _contract_row_problem(row)
        if reason is not None:
            rejected.append(RejectedRow(line, reason))
            continue
        cid, title, by_org, to_org, award, amount, url = row
        records.append(
            ContractRecord(cid, title, by_org, to_org, parse_iso_date(award), amount, url)
        )
    return records, IngestReport(len(records), tuple(rejected))


def _contract_row_problem(row: list[str]) -> str | None:
    if len(row) != len(CONTRACT_HEADER):
        return f"expected {len(CONTRACT_HEADER)} fields, got {len(row)}"
    cid, _title, by_org, to_org, award, amount, url = row
    for field, value in (("contract_id", cid), ("awarding_org", by_org), ("awarded_org", to_org)):
        if not value:
            return f"{field} is empty"
    for field, value in (("awarding_org", by_org), ("awarded_org", to_org)):
        if (reason := _sluggable(value, field)) is not None:
            return reason
    if parse_iso_date(award) is None:
        return f"award_date {award!r} is not a YYYY-MM-DD date"
    try:
        if Decimal(amount) < 0:
            return f"amount_eur {amount!r} is negative"
    except InvalidOperation:
        return f"amount_eur {amount!r} is not a decimal number"
    try:
        Iri(url)
    except ValueError:
        return f"source_url {url!r} is not a valid IRI"
    return None


def parse_role_csv(text: str) -> tuple[list[RoleEvidenceRecord], IngestReport]:
    records: list[RoleEvidenceRecord] = []
    rejected: list[RejectedRow] = []
    for line, row in _rows(text, ROLE_HEADER):
        reason = _role_row_problem(row)
        if reason is not None:
            rejected.append(RejectedRow(line, reason))
            continue
        person, role_type, org, start, end, relation, related, url, title, publisher, ev_date = row
        records.append(
            RoleEvidenceRecord(
                person_name=person,
                role_type=role_type,
                org=org,
                start=parse_iso_date(start),
                end=parse_iso_date(end) if end else None,
                relation=relation or None,
                related_org=related or None,
                evidence_url=url,
                evidence_title=title,
                publisher=publisher,
                evidence_date=parse_iso_date(ev_date),
            )
        )
    return records, IngestReport(len(records), tuple(rejected))


def _role_row_problem(row: list[str]) -> str | None:
    if len(row) != len(ROLE_HEADER):
        return f"expected {len(ROLE_HEADER)} fields, got {len(row)}"
    person, role_type, org, start, end, relation, related, url, _title, _publisher, ev_date = row
    for field, value in (("person_name", person), ("role_type", role_type), ("org", org)):
        if not value:
            return f"{field} is empty"
        if (reason := _sluggable(value, field)) is not None:
            return reason
    start_date = parse_iso_date(start)
    if start_date is None:
        return f"start_date {start!r} is not a YYYY-MM-DD date"
    if end:
        end_date = parse_iso_date(end)
        if end_date is None:
            return f"end_date {end!r} is not a YYYY-MM-DD date"
        if end_date < start_date:
            return f"end_date {end!r} precedes start_date {start!r}"
    if relation and relation not in RELATIONS:
        return f"relation {relation!r} is not one of {RELATIONS} or empty"
    if bool(relation) != bool(related):
        return "relation and related_org must be given together"
    if related and (reason := _sluggable(related, "related_org")) is not None:
        return reason
    try:
        Iri(url)
    except ValueError:
        return f"evidence_url {url!r} is not a valid IRI"
    if parse_iso_date(ev_date) is None:
        return f"evidence_date {ev_date!r} is not a YYYY-MM-DD date"
    return None


def _org_triples(cfg: MintConfig, name: str) -> tuple[Iri, set[Triple]]:
    org = mint_entity_iri(cfg, "org", name)
    return org, {
        Triple(org, RDF_TYPE, GIST.Organization),
        Triple(org, SCHEMA.name, Literal(name)),
    }


def contract_to_triples(record: ContractRecord, cfg: MintConfig) -> set[Triple]:
    contract = mint_entity_iri(cfg, "contract", record.contract_id)
    by_org, triples = _org_triples(cfg, record.awarding_org)
    to_org, to_triples = _org_triples(cfg, record.awarded_org)
    triples |= to_triples
    evidence = mint_entity_iri(cfg, "evidence", record.source_url)
    triples |= {
        Triple(contract, RDF_TYPE, EPO.Contract),
        Triple(contract, DCTERMS.title, Literal(record.title)),
        Triple(contract, EPO.awardDate, Literal(record.award_date.isoformat(), XSD_DATE)),
        Triple(contract, GR.amount, Literal(record.amount, XSD_DECIMAL)),
        Triple(contract, EPO.awardedBy, by_org),
        Triple(contract, EPO.awardedTo, to_org),
        Triple(contract, TRO.hasEvidence, evidence),
        Triple(evidence, RDF_TYPE, TRO.Evidence),
        Triple(evidence, TRO.evidenceURL, Literal(record.source_url, XSD_ANY_URI)),
    }
    return triples


def _evidence_key(record: RoleEvidenceRecord) -> str:
    # one evidence node per source row: rows collapse only when every
    # evidence field matches, not merely the URL
    return " ".join(
        (
            record.evidence_url,
            record.evidence_title,
            record.publisher,
            record.evidence_date.isoformat(),
        )
    )


def role_to_triples(record: RoleEvidenceRecord, cfg: MintConfig) -> set[Triple]:
    person = mint_entity_iri(cfg, "person", record.person_name)
    role = mint_role_iri(cfg, record.person_name, record.role_type, record.start, record.end, record.org)
    org, triples = _org_triples(cfg, record.org)
    evidence = mint_entity_iri(cfg, "evidence", _evidence_key(record))
    triples |= {
        Triple(person, RDF_TYPE, SCHEMA.Person),
        Triple(person, SCHEMA.name, Literal(record.person_name)),
        Triple(role, RDF_TYPE, TRO.Role),
        Triple(role, TRO.roleOf, person),
        Triple(role, TRO.roleIn, org),
        Triple(role, TRO.startDate, Literal(record.start.isoformat(), XSD_DATE)),
        Triple(role, TRO.hasEvidence, evidence),
        Triple(evidence, RDF_TYPE, TRO.Evidence),
        Triple(evidence, TRO.evidenceURL, Literal(record.evidence_url, XSD_ANY_URI)),
        Triple(evidence, DCTERMS.title, Literal(record.evidence_title)),
        Triple(evidence, DC.date, Literal(record.evidence_date.isoformat(), XSD_DATE)),
        Triple(evidence, SCHEMA.publisher, Literal(record.publisher)),
    }
    if record.end is not None:
        triples.add(Triple(role, TRO.endDate, Literal(record.end.isoformat(), XSD_DATE)))
    if record.relation is not None:
        related, related_triples = _org_triples(cfg, record.related_org)
        prop = TRO.ownerOf if record.relation == "owner" else TRO.affiliatedWith
        triples |= related_triples
        triples.add(Triple(person, prop, related))
    return triples


def build_graph(
    contracts: list[ContractRecord],
    roles: list[RoleEvidenceRecord],
    cfg: MintConfig = MintConfig(),
) -> Graph:
    """Union of all record triples under the default prefix map."""
    graph = Graph(default_prefixes())
    for contract in contracts:
        graph.update(contract_to_triples(contract, cfg))
    for role in roles:
        graph.update(role_to_triples(role, cfg))
    return graph
