"""Flat-record ingestion: tender registry and news-evidence CSV to triples.

Two fixed CSV schemas (headers must match exactly). A malformed header
aborts; malformed rows never do. One reader reads each row once and
hands it to its schema's record function, which runs the row's checks
in a fixed order and builds the record from the values they parsed.
The first failing check gives a rejected row its one reason in the
IngestReport, and the remaining rows proceed. The checks include that
every name the row will mint an IRI from survives slug folding, so
record-to-triple conversion cannot fail later.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date
from decimal import Decimal

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

# the xsd:decimal lexical space
_DECIMAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)")


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


class _Rejected(Exception):
    """A row check failed; its one argument is the row's reason."""


def _parse(text: str, header: list[str], record) -> tuple[list, IngestReport]:
    """Each non-blank row, as ``record(*row)`` or as the reason it was rejected."""
    # Excel's "CSV UTF-8" export starts with a byte order mark
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    if (actual := next(reader, None)) != header:
        raise HeaderMismatchError(header, actual)
    records = []
    rejected: list[RejectedRow] = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise _Rejected(f"expected {len(header)} fields, got {len(row)}")
            records.append(record(*row))
        except _Rejected as exc:
            rejected.append(RejectedRow(reader.line_num, exc.args[0]))
    return records, IngestReport(len(records), tuple(rejected))


def _filled(field: str, value: str) -> None:
    if not value:
        raise _Rejected(f"{field} is empty")


def _name(field: str, value: str) -> None:
    """Reject a value that cannot become an IRI component."""
    _filled(field, value)
    try:
        normalize_name(value)
    except EmptySlugError:
        raise _Rejected(f"{field} {value!r} has no usable characters for an identifier") from None


def _date(field: str, value: str) -> date:
    parsed = parse_iso_date(value)
    if parsed is None:
        raise _Rejected(f"{field} {value!r} is not a YYYY-MM-DD date")
    return parsed


def _iri(field: str, value: str) -> None:
    try:
        Iri(value)
    except ValueError:
        raise _Rejected(f"{field} {value!r} is not a valid IRI") from None


def _contract_record(cid, title, by_org, to_org, award, amount, url) -> ContractRecord:
    for field, value in (("contract_id", cid), ("awarding_org", by_org), ("awarded_org", to_org)):
        _filled(field, value)
    _name("awarding_org", by_org)
    _name("awarded_org", to_org)
    award_date = _date("award_date", award)
    if not _DECIMAL_RE.fullmatch(amount):
        raise _Rejected(f"amount_eur {amount!r} is not a decimal number")
    if Decimal(amount) < 0:
        raise _Rejected(f"amount_eur {amount!r} is negative")
    _iri("source_url", url)
    return ContractRecord(cid, title, by_org, to_org, award_date, amount, url)


def parse_contract_csv(text: str) -> tuple[list[ContractRecord], IngestReport]:
    return _parse(text, CONTRACT_HEADER, _contract_record)


def _role_record(
    person, role_type, org, start, end, relation, related, url, title, publisher, ev_date
) -> RoleEvidenceRecord:
    for field, value in (("person_name", person), ("role_type", role_type), ("org", org)):
        _name(field, value)
    start_date = _date("start_date", start)
    end_date = _date("end_date", end) if end else None
    if end_date is not None and end_date < start_date:
        raise _Rejected(f"end_date {end!r} precedes start_date {start!r}")
    if relation and relation not in RELATIONS:
        raise _Rejected(f"relation {relation!r} is not one of {RELATIONS} or empty")
    if bool(relation) != bool(related):
        raise _Rejected("relation and related_org must be given together")
    if related:
        _name("related_org", related)
    _iri("evidence_url", url)
    evidence_date = _date("evidence_date", ev_date)
    return RoleEvidenceRecord(
        person, role_type, org, start_date, end_date, relation or None, related or None,
        url, title, publisher, evidence_date,
    )


def parse_role_csv(text: str) -> tuple[list[RoleEvidenceRecord], IngestReport]:
    return _parse(text, ROLE_HEADER, _role_record)


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
