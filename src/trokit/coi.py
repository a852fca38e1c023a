"""Candidate conflict-of-interest detection.

Two fixed temporal co-occurrence patterns over the graph:

  AWARD-TO-LINKED-ORG  a contract is awarded, during someone's role in
                       the awarding body, to an organization that
                       person owns or is affiliated with.
  DUAL-ROLE            one person holds overlapping roles in two
                       organizations that have a contract between them
                       dated inside the overlap.

Findings are candidates, pointers for human review, never assessments.
Every finding carries the evidence nodes backing its roles and
contracts. A node ``_role_interval`` or ``_award_date`` judges unusable
is skipped; validate reports it, with that reason, as DETECTION-SKIP.

A role's dates form a ``util.Interval``: closed, and a missing end date
means the role is ongoing and the interval extends forever. A role
pair's overlap is ``Interval.intersect``.

Both patterns are indexed joins, not scans. Roles and contracts are read
through ``Graph.subjects``; the usable contracts go into one index, a
plain list per ordered (awardedBy, awardedTo) org pair sorted by award
date, and ownership and affiliation links are grouped by person.
AWARD-TO-LINKED-ORG bisects a role's interval into the list of each
(role org, linked org) pair. DUAL-ROLE sweeps each person's roles in
start-date order, pairing a role only with the earlier roles still
active at its start, and bisects each such pair's overlap into the lists
of both org orders. A call costs O(k log k per person of k roles +
(role-link pairs + overlapping role pairs) · log contracts + findings).

The findings JSON is the text of ``json.dumps(payload, indent=2)``, but
rendered one finding's block at a time from a fixed template, with the C
string encoder ``json.dumps`` itself uses, so it is never held whole.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from datetime import date
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .namespaces import EPO, TRO
from .rdf_core import Graph, Iri
from .util import Interval, InvalidIntervalError, xsd_dates

AWARD_TO_LINKED_ORG = "AWARD-TO-LINKED-ORG"
DUAL_ROLE = "DUAL-ROLE"


@dataclass(frozen=True, slots=True)
class Finding:
    pattern_id: str
    person: Iri
    role_iris: frozenset[Iri]
    contract: Iri | None
    organizations: frozenset[Iri]
    overlap: Interval | date
    evidence: frozenset[Iri]

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("a finding must carry evidence")
        if self.pattern_id == AWARD_TO_LINKED_ORG and self.contract is None:
            raise ValueError(f"{AWARD_TO_LINKED_ORG} findings need a contract")
        if self.pattern_id == DUAL_ROLE and len(self.role_iris) < 2:
            raise ValueError(f"{DUAL_ROLE} findings need at least two roles")

    def sort_key(self):
        overlap = self.overlap
        overlap_key = (
            (overlap.isoformat(), "")
            if isinstance(overlap, date)
            else (overlap.start.isoformat(), overlap.end.isoformat() if overlap.end else "~")
        )
        return (
            self.pattern_id,
            self.person,
            self.contract or "",
            sorted(self.role_iris),
            sorted(self.organizations),
            overlap_key,
        )


def _iris(values) -> list[Iri]:
    return [o for o in values if isinstance(o, Iri)]


def _unnamed(node, po: dict, props: tuple[Iri, ...] = ()) -> str | None:
    """Why a finding could not name the node or its ``props``: it is blank, or one of them has no IRI value."""
    if not isinstance(node, Iri):
        return "a finding cannot name a blank node"
    for prop in props:
        if not _iris(po.get(prop, ())):
            return f"no IRI value of {prop}"
    return None


def _date_value(po: dict, prop: Iri) -> date | str:
    """The node's one ``prop`` date, or why it has none."""
    values = po.get(prop, ())
    if len(values) != 1:
        return f"{len(values)} values of {prop}" if values else f"no value of {prop}"
    (parsed,) = xsd_dates(values)
    return f"value of {prop} is not a date" if parsed is None else parsed


def _role_interval(node, po: dict) -> Interval | str:
    """The role's interval, or the first reason detection skips the node."""
    start = _unnamed(node, po, (TRO.roleOf, TRO.roleIn, TRO.hasEvidence)) or _date_value(po, TRO.startDate)
    end = _date_value(po, TRO.endDate) if TRO.endDate in po else None
    if isinstance(start, str) or isinstance(end, str):
        return start if isinstance(start, str) else end
    try:
        return Interval(start, end)
    except InvalidIntervalError as error:
        return str(error)


def _award_date(node, po: dict) -> date | str:
    """The contract's award date, or the first reason detection skips the node."""
    awarded = _unnamed(node, po) or _date_value(po, EPO.awardDate)
    return awarded if isinstance(awarded, str) else _unnamed(node, po, (EPO.awardedBy, EPO.awardedTo)) or awarded


@dataclass(frozen=True, slots=True)
class _Role:
    iri: Iri
    person: Iri
    org: Iri
    interval: Interval
    evidence: frozenset[Iri]


@dataclass(frozen=True, slots=True)
class _Contract:
    iri: Iri
    award_date: date
    evidence: frozenset[Iri]


_AWARD_DATE = attrgetter("award_date")


def _collect_roles(graph: Graph) -> list[_Role]:
    roles = []
    for role in graph.subjects(TRO.roleOf):
        po = graph._spo[role]
        if isinstance(interval := _role_interval(role, po), str):
            continue
        evidence = frozenset(_iris(po[TRO.hasEvidence]))
        for person in _iris(po[TRO.roleOf]):
            for org in _iris(po[TRO.roleIn]):
                roles.append(_Role(role, person, org, interval, evidence))
    return roles


def _linked_orgs(graph: Graph) -> dict[Iri, set[Iri]]:
    """person -> the orgs they own or are affiliated with."""
    links: dict[Iri, set[Iri]] = {}
    for prop in (TRO.ownerOf, TRO.affiliatedWith):
        for org, people in graph._pos.get(prop, {}).items():
            for person in people:  # a blank person or org is never looked up: roles and contracts name IRIs only
                links.setdefault(person, set()).add(org)
    return links


def _index_contracts(graph: Graph) -> dict[tuple[Iri, Iri], list[_Contract]]:
    """The usable contracts by ordered (awardedBy, awardedTo) org pair, each list sorted by award date."""
    by_pair: dict[tuple[Iri, Iri], list[_Contract]] = {}
    for node in graph.subjects(EPO.awardDate):
        po = graph._spo[node]
        if isinstance(awarded := _award_date(node, po), str):
            continue
        contract = _Contract(node, awarded, frozenset(_iris(po.get(TRO.hasEvidence, ()))))
        winners = _iris(po[EPO.awardedTo])
        for awarder in _iris(po[EPO.awardedBy]):
            for winner in winners:
                by_pair.setdefault((awarder, winner), []).append(contract)
    for contracts in by_pair.values():
        contracts.sort(key=_AWARD_DATE)
    return by_pair


def _within(contracts: Sequence[_Contract], interval: Interval) -> Sequence[_Contract]:
    """The award-date-sorted ``contracts`` awarded inside the closed ``interval``."""
    lo = bisect_left(contracts, interval.start, key=_AWARD_DATE)
    hi = len(contracts) if interval.end is None else bisect_right(contracts, interval.end, key=_AWARD_DATE)
    return contracts[lo:hi]


def _overlapping_pairs(roles: list[_Role]) -> Iterator[tuple[_Role, _Role]]:
    """The pairs of start-sorted ``roles`` that share a day, found by a sweep, not by trying all pairs."""
    active: list[_Role] = []  # the earlier roles not ended before the current one starts
    for role in roles:
        active = [a for a in active if a.interval.end is None or a.interval.end >= role.interval.start]
        yield from ((earlier, role) for earlier in active)
        active.append(role)


def detect_conflicts(graph: Graph) -> list[Finding]:
    """Evaluate both patterns; deterministic, duplicate-free output."""
    roles = _collect_roles(graph)
    by_pair = _index_contracts(graph)
    links = _linked_orgs(graph)
    findings: set[Finding] = set()

    for role in roles:
        for winner in links.get(role.person, ()):
            for contract in _within(by_pair.get((role.org, winner), ()), role.interval):
                findings.add(
                    Finding(
                        pattern_id=AWARD_TO_LINKED_ORG,
                        person=role.person,
                        role_iris=frozenset({role.iri}),
                        contract=contract.iri,
                        organizations=frozenset({role.org, winner}),
                        overlap=contract.award_date,
                        evidence=role.evidence | contract.evidence,
                    )
                )

    by_person: dict[Iri, list[_Role]] = {}
    for role in sorted(roles, key=attrgetter("interval.start")):
        by_person.setdefault(role.person, []).append(role)
    for person, person_roles in by_person.items():
        for r1, r2 in _overlapping_pairs(person_roles):
            if r1.iri == r2.iri or r1.org == r2.org:
                continue
            overlap = r1.interval.intersect(r2.interval)
            witnesses = [
                contract
                for pair in ((r1.org, r2.org), (r2.org, r1.org))
                for contract in _within(by_pair.get(pair, ()), overlap)
            ]
            if witnesses:
                findings.add(
                    Finding(
                        pattern_id=DUAL_ROLE,
                        person=person,
                        role_iris=frozenset({r1.iri, r2.iri}),
                        contract=None,
                        organizations=frozenset({r1.org, r2.org}),
                        overlap=overlap,
                        evidence=r1.evidence.union(r2.evidence, *(c.evidence for c in witnesses)),
                    )
                )

    return sorted(findings, key=Finding.sort_key)


def _iri_list(iris: frozenset[Iri]) -> str:
    """The IRIs' sorted values as a JSON list, indented as a finding's field."""
    return "[\n      " + ",\n      ".join(map(_json_str, sorted(i.value for i in iris))) + "\n    ]" if iris else "[]"


def _findings_chunks(findings: Iterable[Finding]) -> Iterator[str]:
    """The text of ``findings_to_json``, one finding's block at a time, from a fixed template."""
    sep = "[\n"
    for f in findings:
        o = f.overlap
        if isinstance(o, date):
            overlap = f'"date": "{o.isoformat()}"'
        else:
            end = "null" if o.end is None else f'"{o.end.isoformat()}"'
            overlap = f'"start": "{o.start.isoformat()}",\n      "end": {end}'
        contract = "null" if f.contract is None else _json_str(f.contract.value)
        yield (
            f'{sep}  {{\n    "patternId": {_json_str(f.pattern_id)},\n    "person": {_json_str(f.person.value)},\n'
            f'    "roleIris": {_iri_list(f.role_iris)},\n    "contract": {contract},\n'
            f'    "organizations": {_iri_list(f.organizations)},\n    "overlap": {{\n      {overlap}\n    }},\n'
            f'    "evidence": {_iri_list(f.evidence)}\n  }}'
        )
        sep = ",\n"
    yield "\n]" if sep == ",\n" else "[]"


def findings_to_json(findings: list[Finding]) -> str:
    return "".join(_findings_chunks(findings))
