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
contracts. Malformed nodes (unparseable or ambiguous dates, roles with
no evidence) are skipped, not reported; that is the validator's job.

A role's dates form a ``util.Interval``: closed, and a missing end date
means the role is ongoing and the interval extends forever. A role
pair's overlap is ``Interval.intersect``.

Both patterns are indexed joins, not scans. Roles and contracts are read
through ``Graph.subjects``; the usable contracts are sorted by award date
once, into plain lists by awarding org and by ordered (awardedBy,
awardedTo) org pair, and ownership and affiliation links are grouped by
person. A role's interval (or a role pair's overlap) is bisected into
the matching list, so a call costs O((roles + role pairs) · log
contracts + hits) instead of roles × contracts.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import date
from itertools import combinations
from operator import attrgetter

from .namespaces import EPO, TRO
from .rdf_core import Graph, Iri
from .util import Interval, xsd_dates

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


def _single_date(objects) -> date | None:
    """The unique well-formed date value, or None when absent/ambiguous."""
    values = set(xsd_dates(objects))
    return values.pop() if len(values) == 1 else None


def _role_interval(po: dict) -> Interval | None:
    start = _single_date(po.get(TRO.startDate, ()))
    if start is None:
        return None
    end_objs = po.get(TRO.endDate)
    if not end_objs:
        return Interval(start, None)
    end = _single_date(end_objs)
    if end is None or end < start:
        return None
    return Interval(start, end)


def _iris(values) -> list[Iri]:
    return [o for o in values if isinstance(o, Iri)]


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
    awarded_by: tuple[Iri, ...]
    awarded_to: tuple[Iri, ...]
    award_date: date
    evidence: frozenset[Iri]


_AWARD_DATE = attrgetter("award_date")


def _collect_roles(graph: Graph) -> list[_Role]:
    roles = []
    for role in graph.subjects(TRO.roleOf):
        if not isinstance(role, Iri):
            continue
        po = graph._spo[role]
        interval = _role_interval(po)
        evidence = frozenset(_iris(po.get(TRO.hasEvidence, ())))
        if interval is None or not evidence:
            continue
        for person in _iris(po[TRO.roleOf]):
            for org in _iris(po.get(TRO.roleIn, ())):
                roles.append(_Role(role, person, org, interval, evidence))
    return roles


def _collect_contracts(graph: Graph) -> list[_Contract]:
    contracts = []
    for node in graph.subjects(EPO.awardDate):
        if not isinstance(node, Iri):
            continue
        po = graph._spo[node]
        awarded = _single_date(po[EPO.awardDate])
        if awarded is None:
            continue
        by = tuple(_iris(po.get(EPO.awardedBy, ())))
        to = tuple(_iris(po.get(EPO.awardedTo, ())))
        if not by or not to:
            continue
        evidence = frozenset(_iris(po.get(TRO.hasEvidence, ())))
        contracts.append(_Contract(node, by, to, awarded, evidence))
    return contracts


def _linked_orgs(graph: Graph) -> dict[Iri, set[Iri]]:
    """person -> the orgs they own or are affiliated with."""
    links: dict[Iri, set[Iri]] = {}
    for prop in (TRO.ownerOf, TRO.affiliatedWith):
        for org, people in graph._pos.get(prop, {}).items():
            if not isinstance(org, Iri):
                continue
            for person in people:
                if isinstance(person, Iri):
                    links.setdefault(person, set()).add(org)
    return links


def _index_contracts(contracts: list[_Contract]):
    """Award-date-sorted contract lists by awarding org and by (awardedBy, awardedTo) pair."""
    by_org: dict[Iri, list[_Contract]] = {}
    by_pair: dict[tuple[Iri, Iri], list[_Contract]] = {}
    for contract in sorted(contracts, key=_AWARD_DATE):
        for awarder in contract.awarded_by:
            by_org.setdefault(awarder, []).append(contract)
            for winner in contract.awarded_to:
                by_pair.setdefault((awarder, winner), []).append(contract)
    return by_org, by_pair


def _within(contracts: list[_Contract], interval: Interval) -> list[_Contract]:
    """The award-date-sorted ``contracts`` awarded inside the closed ``interval``."""
    lo = bisect_left(contracts, interval.start, key=_AWARD_DATE)
    hi = len(contracts) if interval.end is None else bisect_right(contracts, interval.end, key=_AWARD_DATE)
    return contracts[lo:hi]


def detect_conflicts(graph: Graph) -> list[Finding]:
    """Evaluate both patterns; deterministic, duplicate-free output."""
    roles = _collect_roles(graph)
    by_org, by_pair = _index_contracts(_collect_contracts(graph))
    links = _linked_orgs(graph)
    findings: set[Finding] = set()

    for role in roles:
        linked = links.get(role.person)
        awarded = by_org.get(role.org)
        if not linked or not awarded:
            continue
        for contract in _within(awarded, role.interval):
            for winner in contract.awarded_to:
                if winner in linked:
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
    for role in roles:
        by_person.setdefault(role.person, []).append(role)
    for person, person_roles in by_person.items():
        for r1, r2 in combinations(person_roles, 2):
            if r1.iri == r2.iri or r1.org == r2.org:
                continue
            overlap = r1.interval.intersect(r2.interval)
            if overlap is None:
                continue
            witnesses = [
                contract
                for pair in ((r1.org, r2.org), (r2.org, r1.org))
                if pair in by_pair
                for contract in _within(by_pair[pair], overlap)
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


def _overlap_json(overlap: Interval | date):
    if isinstance(overlap, date):
        return {"date": overlap.isoformat()}
    return {
        "start": overlap.start.isoformat(),
        "end": overlap.end.isoformat() if overlap.end is not None else None,
    }


def findings_to_json(findings: list[Finding]) -> str:
    payload = [
        {
            "patternId": f.pattern_id,
            "person": f.person.value,
            "roleIris": sorted(r.value for r in f.role_iris),
            "contract": f.contract.value if f.contract else None,
            "organizations": sorted(o.value for o in f.organizations),
            "overlap": _overlap_json(f.overlap),
            "evidence": sorted(e.value for e in f.evidence),
        }
        for f in findings
    ]
    return json.dumps(payload, indent=2)
