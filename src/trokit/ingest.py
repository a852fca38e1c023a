"""Flat-record ingestion: tender registry and news-evidence CSV to triples.

Two fixed CSV schemas (headers must match exactly). A malformed header
aborts; malformed rows never do. One reader reads each row once and
hands it to its schema's record function, which runs the row's checks
in a fixed order and builds the record from the values they parsed.
The first failing check gives a rejected row its one reason in the
IngestReport, and the remaining rows proceed. The checks include that
every name the row will mint an IRI from survives slug folding, so
record-to-triple conversion cannot fail later. One body per schema
gives a record's (s, p, o) tuples: build_graph adds them through
Graph._add, with no Triple, and contract_to_triples and role_to_triples
wrap them as sets of Triple.
"""

from __future__ import annotations

import csv
import functools
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


class CsvSyntaxError(ValueError):
    """A line the csv module cannot read, such as a field over its size limit; the message names it."""


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
    records = []
    rejected: list[RejectedRow] = []
    try:
        if (actual := next(reader, None)) != header:
            raise HeaderMismatchError(header, actual)
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise _Rejected(f"expected {len(header)} fields, got {len(row)}")
                records.append(record(*row))
            except _Rejected as exc:
                rejected.append(RejectedRow(reader.line_num, exc.args[0]))
    except csv.Error as exc:  # csv.field_size_limit() is process-wide, so it is not raised here
        raise CsvSyntaxError(f"line {reader.line_num}: {exc}") from None
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


def _contract_triples(record: ContractRecord, iri, literal) -> tuple[tuple, ...]:
    """The record's (s, p, o) triples; iri(kind, key) mints an entity, literal(lexical, datatype) builds one."""
    contract = iri("contract", record.contract_id)
    by_org = iri("org", record.awarding_org)
    to_org = iri("org", record.awarded_org)
    evidence = iri("evidence", record.source_url)
    return (
        (by_org, RDF_TYPE, GIST.Organization),
        (by_org, SCHEMA.name, literal(record.awarding_org)),
        (to_org, RDF_TYPE, GIST.Organization),
        (to_org, SCHEMA.name, literal(record.awarded_org)),
        (contract, RDF_TYPE, EPO.Contract),
        (contract, DCTERMS.title, literal(record.title)),
        (contract, EPO.awardDate, literal(record.award_date.isoformat(), XSD_DATE)),
        (contract, GR.amount, literal(record.amount, XSD_DECIMAL)),
        (contract, EPO.awardedBy, by_org),
        (contract, EPO.awardedTo, to_org),
        (contract, TRO.hasEvidence, evidence),
        (evidence, RDF_TYPE, TRO.Evidence),
        (evidence, TRO.evidenceURL, literal(record.source_url, XSD_ANY_URI)),
    )


def _role_triples(record: RoleEvidenceRecord, cfg: MintConfig, iri, literal) -> tuple[tuple, ...]:
    """As _contract_triples; the role IRI is minted from cfg, since no two rows share one."""
    person = iri("person", record.person_name)
    role = mint_role_iri(cfg, record.person_name, record.role_type, record.start, record.end, record.org)
    org = iri("org", record.org)
    # one evidence node per source row: rows collapse only when every
    # evidence field matches, not merely the URL
    evidence_date = record.evidence_date.isoformat()
    evidence = iri("evidence", " ".join((record.evidence_url, record.evidence_title, record.publisher, evidence_date)))
    triples = (
        (org, RDF_TYPE, GIST.Organization),
        (org, SCHEMA.name, literal(record.org)),
        (person, RDF_TYPE, SCHEMA.Person),
        (person, SCHEMA.name, literal(record.person_name)),
        (role, RDF_TYPE, TRO.Role),
        (role, TRO.roleOf, person),
        (role, TRO.roleIn, org),
        (role, TRO.startDate, literal(record.start.isoformat(), XSD_DATE)),
        (role, TRO.hasEvidence, evidence),
        (evidence, RDF_TYPE, TRO.Evidence),
        (evidence, TRO.evidenceURL, literal(record.evidence_url, XSD_ANY_URI)),
        (evidence, DCTERMS.title, literal(record.evidence_title)),
        (evidence, DC.date, literal(evidence_date, XSD_DATE)),
        (evidence, SCHEMA.publisher, literal(record.publisher)),
    )
    if record.end is not None:
        triples += ((role, TRO.endDate, literal(record.end.isoformat(), XSD_DATE)),)
    if record.relation is not None:
        related = iri("org", record.related_org)
        prop = TRO.ownerOf if record.relation == "owner" else TRO.affiliatedWith
        triples += (
            (related, RDF_TYPE, GIST.Organization),
            (related, SCHEMA.name, literal(record.related_org)),
            (person, prop, related),
        )
    return triples


def contract_to_triples(record: ContractRecord, cfg: MintConfig) -> set[Triple]:
    return {Triple(*t) for t in _contract_triples(record, functools.partial(mint_entity_iri, cfg), Literal)}


def role_to_triples(record: RoleEvidenceRecord, cfg: MintConfig) -> set[Triple]:
    return {Triple(*t) for t in _role_triples(record, cfg, functools.partial(mint_entity_iri, cfg), Literal)}


def build_graph(
    contracts: list[ContractRecord],
    roles: list[RoleEvidenceRecord],
    cfg: MintConfig = MintConfig(),
) -> Graph:
    """Union of all record triples under the default prefix map.

    Each entity IRI is minted, and each literal built, once per call.
    """
    graph = Graph(default_prefixes())
    add = graph._add
    iri = functools.cache(functools.partial(mint_entity_iri, cfg))  # this call's memos
    literal = functools.cache(Literal)
    for contract in contracts:
        for s, p, o in _contract_triples(contract, iri, literal):
            add(s, p, o)
    for role in roles:
        for s, p, o in _role_triples(role, cfg, iri, literal):
            add(s, p, o)
    return graph
