"""Conflict-pattern detection against an independent brute-force oracle."""

import io
import json
import random
import re
import tracemalloc
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import (
    AWARD_TO_LINKED_ORG,
    BlankNode,
    DUAL_ROLE,
    Finding,
    Graph,
    Interval,
    InvalidIntervalError,
    Iri,
    Literal,
    MintConfig,
    Triple,
    build_graph,
    builtin_vocabulary,
    check,
    cli,
    coi,
    detect_conflicts,
    findings_to_json,
    parse_contract_csv,
    parse_role_csv,
)
from trokit.namespaces import EPO, TRO
from trokit.rdf_core import XSD_DATE

from conftest import all_triples, random_coi_graph, without

DATA = "http://ehu.eus/tro/data/"


# --- independent re-implementation used as the oracle -----------------

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}\Z")


def _parse(lex: str) -> date | None:
    if not _DATE_RE.match(lex):
        return None
    try:
        return date.fromisoformat(lex)
    except ValueError:
        return None


def _finding_key(f: Finding):
    if isinstance(f.overlap, date):
        okey = ("date", f.overlap.isoformat())
    else:
        end = f.overlap.end.isoformat() if f.overlap.end is not None else None
        okey = ("interval", f.overlap.start.isoformat(), end)
    return (
        f.pattern_id,
        f.person.value,
        frozenset(r.value for r in f.role_iris),
        f.contract.value if f.contract else None,
        frozenset(o.value for o in f.organizations),
        okey,
        frozenset(e.value for e in f.evidence),
    )


def brute_force_usable(triples: list[Triple]) -> tuple[list, list]:
    """The role (one per person and org) and contract tuples a finding may rest on, by plain loops over the triples."""
    values: dict = {}
    for t in triples:
        values.setdefault((t.subject, t.predicate), []).append(t.object)

    def objs(s, p):
        return values.get((s, p), [])

    def one_date(s, p):
        seen = set()
        for o in objs(s, p):
            if not isinstance(o, Literal) or o.datatype != XSD_DATE:
                return None
            parsed = _parse(o.lexical)
            if parsed is None:
                return None
            seen.add(parsed)
        return seen.pop() if len(seen) == 1 else None

    def iris(s, p):
        return [o for o in objs(s, p) if isinstance(o, Iri)]

    roles = []
    for s in {t.subject for t in triples if t.predicate == TRO.roleOf}:
        if not isinstance(s, Iri):
            continue
        start = one_date(s, TRO.startDate)
        if start is None:
            continue
        if objs(s, TRO.endDate):
            end = one_date(s, TRO.endDate)
            if end is None or end < start:
                continue
        else:
            end = None
        evidence = frozenset(v.value for v in iris(s, TRO.hasEvidence))
        if not evidence:
            continue
        for person in iris(s, TRO.roleOf):
            for org in iris(s, TRO.roleIn):
                roles.append((s, person, org, start, end, evidence))

    contracts = []
    for s in {t.subject for t in triples if t.predicate == EPO.awardDate}:
        if not isinstance(s, Iri):
            continue
        awarded = one_date(s, EPO.awardDate)
        by, to = iris(s, EPO.awardedBy), iris(s, EPO.awardedTo)
        if awarded is None or not by or not to:
            continue
        evidence = frozenset(v.value for v in iris(s, TRO.hasEvidence))
        contracts.append((s, by, to, awarded, evidence))
    return roles, contracts


def brute_force_keys(graph: Graph) -> set:
    """Recompute both patterns with plain loops over the triple list."""
    triples = list(all_triples(graph))
    roles, contracts = brute_force_usable(triples)
    links = {
        (t.subject, t.object)
        for t in triples
        if t.predicate in (TRO.ownerOf, TRO.affiliatedWith)
        and isinstance(t.subject, Iri)
        and isinstance(t.object, Iri)
    }

    keys = set()
    for role_iri, person, org, start, end, role_ev in roles:
        role_end = end if end is not None else date.max
        for c_iri, by, to, awarded, c_ev in contracts:
            if org not in by or not (start <= awarded <= role_end):
                continue
            for winner in to:
                if (person, winner) in links:
                    keys.add(
                        (
                            AWARD_TO_LINKED_ORG,
                            person.value,
                            frozenset({role_iri.value}),
                            c_iri.value,
                            frozenset({org.value, winner.value}),
                            ("date", awarded.isoformat()),
                            role_ev | c_ev,
                        )
                    )

    for i, r1 in enumerate(roles):
        for r2 in roles[i + 1 :]:
            if r1[1] != r2[1] or r1[0] == r2[0] or r1[2] == r2[2]:
                continue
            lo = max(r1[3], r2[3])
            ends = [e for e in (r1[4], r2[4]) if e is not None]
            hi = min(ends) if ends else None
            if (hi if hi is not None else date.max) < lo:
                continue
            witness_ev: set[str] = set()
            witnessed = False
            for _, by, to, awarded, c_ev in contracts:
                between = (r1[2] in by and r2[2] in to) or (r2[2] in by and r1[2] in to)
                if between and lo <= awarded <= (hi if hi is not None else date.max):
                    witnessed = True
                    witness_ev |= c_ev
            if witnessed:
                keys.add(
                    (
                        DUAL_ROLE,
                        r1[1].value,
                        frozenset({r1[0].value, r2[0].value}),
                        None,
                        frozenset({r1[2].value, r2[2].value}),
                        ("interval", lo.isoformat(), hi.isoformat() if hi else None),
                        r1[5] | r2[5] | frozenset(witness_ev),
                    )
                )
    return keys


# --- interval arithmetic ----------------------------------------------


@st.composite
def intervals(draw):
    start = draw(st.dates())
    if draw(st.booleans()):
        return Interval(start, None)
    span = timedelta(days=draw(st.integers(min_value=0, max_value=3000)))
    end = start + span if start <= date.max - span else date.max
    return Interval(start, end)


# a 40-day window across a leap day; open ends are clipped to its last day
WINDOW = [date(2020, 2, 10) + timedelta(days=i) for i in range(40)]


@st.composite
def window_intervals(draw):
    start = draw(st.integers(min_value=0, max_value=len(WINDOW) - 1))
    end = draw(st.none() | st.integers(min_value=start, max_value=len(WINDOW) - 1))
    return Interval(WINDOW[start], None if end is None else WINDOW[end])


def _holds(interval: Interval, d: date) -> bool:
    return interval.start <= d and (interval.end is None or d <= interval.end)


class TestIntervals:
    def test_examples(self):
        a = Interval(date(2015, 1, 10), date(2020, 12, 31))
        b = Interval(date(2018, 1, 1), None)
        assert a.intersect(b) == Interval(date(2018, 1, 1), date(2020, 12, 31))
        assert a.intersect(Interval(date(2021, 1, 1), None)) is None
        assert b.intersect(Interval(date(2019, 1, 1), None)) == Interval(date(2019, 1, 1), None)
        # closed intervals: touching endpoints do overlap
        touching = Interval(date(2020, 12, 31), date(2022, 1, 1))
        assert a.intersect(touching) == Interval(date(2020, 12, 31), date(2020, 12, 31))

    def test_invalid_interval_rejected(self):
        with pytest.raises(InvalidIntervalError, match="^end 2019-01-01 precedes start 2020-01-01$"):
            Interval(date(2020, 1, 1), date(2019, 1, 1))

    @given(intervals(), intervals())
    def test_overlap_symmetric(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(intervals())
    def test_overlap_reflexive(self, a):
        assert a.intersect(a) == a

    @given(intervals(), intervals())
    def test_overlap_witness(self, a, b):
        witness = max(a.start, b.start)
        overlap = a.intersect(b)
        assert (overlap is not None) == (_holds(a, witness) and _holds(b, witness))
        if overlap is not None:
            assert overlap.start == witness

    @given(window_intervals(), window_intervals())
    def test_intersect_is_the_span_of_common_days(self, a, b):
        common = {d for d in WINDOW if _holds(a, d) and _holds(b, d)}
        overlap = a.intersect(b)
        if not common:
            assert overlap is None
            return
        assert overlap is not None
        assert overlap.start == min(common)
        assert (overlap.end or WINDOW[-1]) == max(common)
        assert (overlap.end is None) == (a.end is None and b.end is None)


class TestFindingInvariants:
    def test_needs_evidence(self):
        with pytest.raises(ValueError):
            Finding(
                AWARD_TO_LINKED_ORG,
                Iri("http://e.org/p"),
                frozenset({Iri("http://e.org/r")}),
                Iri("http://e.org/c"),
                frozenset({Iri("http://e.org/o")}),
                date(2020, 1, 1),
                frozenset(),
            )

    def test_award_needs_contract(self):
        with pytest.raises(ValueError):
            Finding(
                AWARD_TO_LINKED_ORG,
                Iri("http://e.org/p"),
                frozenset({Iri("http://e.org/r")}),
                None,
                frozenset({Iri("http://e.org/o")}),
                date(2020, 1, 1),
                frozenset({Iri("http://e.org/e")}),
            )

    def test_dual_role_needs_two_roles(self):
        with pytest.raises(ValueError):
            Finding(
                DUAL_ROLE,
                Iri("http://e.org/p"),
                frozenset({Iri("http://e.org/r")}),
                None,
                frozenset({Iri("http://e.org/o")}),
                Interval(date(2020, 1, 1), None),
                frozenset({Iri("http://e.org/e")}),
            )


# --- handcrafted graphs -----------------------------------------------

EX = "http://example.org/"


def _skips(graph: Graph) -> list:
    """The (focus, message) of each DETECTION-SKIP entry ``check`` reports on the graph."""
    return [(e.focus, e.message) for e in check(graph, builtin_vocabulary()).entries if e.rule_id == "DETECTION-SKIP"]


def award_graph(**tweaks) -> Graph:
    """Minimal graph matching the award pattern, mutated by keyword."""
    g = Graph()
    role, person = Iri(EX + "role"), Iri(EX + "person")
    gov, acme = Iri(EX + "gov"), Iri(EX + "acme")
    contract, ev = Iri(EX + "contract"), Iri(EX + "ev")

    def lit(s):
        return Literal(s, XSD_DATE)

    g.insert(Triple(role, TRO.roleOf, person))
    g.insert(Triple(role, TRO.roleIn, gov))
    g.insert(Triple(role, TRO.startDate, lit(tweaks.get("start", "2015-01-01"))))
    if tweaks.get("end", "2021-01-01") is not None:
        g.insert(Triple(role, TRO.endDate, lit(tweaks.get("end", "2021-01-01"))))
    if tweaks.get("evidence", True):
        g.insert(Triple(role, TRO.hasEvidence, ev))
    if tweaks.get("extra_start"):
        g.insert(Triple(role, TRO.startDate, lit(tweaks["extra_start"])))
    g.insert(Triple(person, tweaks.get("link", TRO.ownerOf), acme))
    g.insert(Triple(contract, EPO.awardedBy, gov))
    if tweaks.get("awarded_to", True):
        g.insert(Triple(contract, EPO.awardedTo, acme))
    g.insert(Triple(contract, EPO.awardDate, lit(tweaks.get("award", "2018-03-01"))))
    if tweaks.get("extra_award"):
        g.insert(Triple(contract, EPO.awardDate, lit(tweaks["extra_award"])))
    return g


class TestAwardPattern:
    def test_fires(self):
        (finding,) = detect_conflicts(award_graph())
        assert finding.pattern_id == AWARD_TO_LINKED_ORG
        assert finding.overlap == date(2018, 3, 1)
        assert finding.organizations == frozenset({Iri(EX + "gov"), Iri(EX + "acme")})

    def test_affiliation_counts_as_link(self):
        (finding,) = detect_conflicts(award_graph(link=TRO.affiliatedWith))
        assert finding.pattern_id == AWARD_TO_LINKED_ORG

    def test_award_outside_interval(self):
        assert detect_conflicts(award_graph(award="2022-01-01")) == []

    def test_open_ended_role_catches_late_award(self):
        g = award_graph(end=None, award="2030-06-01")
        (finding,) = detect_conflicts(g)
        assert finding.overlap == date(2030, 6, 1)

    @pytest.mark.parametrize(
        "tweaks, node, reason",
        [
            ({"evidence": False}, "role", f"no IRI value of {TRO.hasEvidence}"),
            ({"extra_start": "2015-02-01"}, "role", f"2 values of {TRO.startDate}"),
            ({"start": "not-a-date"}, "role", f"value of {TRO.startDate} is not a date"),
            ({"end": "2014-01-01"}, "role", "end 2014-01-01 precedes start 2015-01-01"),
            ({"awarded_to": False}, "contract", f"no IRI value of {EPO.awardedTo}"),
            ({"extra_award": "2018-04-01"}, "contract", f"2 values of {EPO.awardDate}"),
        ],
        ids=[f"tweaks{i}" for i in range(6)],
    )
    def test_malformed_nodes_are_skipped(self, tweaks, node, reason):
        """Detection skips the node, and validate reports it with the reason."""
        graph = award_graph(**tweaks)
        assert detect_conflicts(graph) == []
        assert _skips(graph) == [(Iri(EX + node), f"{reason}: detection skips the node")]

    @pytest.mark.parametrize(
        "node, skipped, reason",
        [
            ("role", BlankNode("b"), "a finding cannot name a blank node"),
            ("contract", BlankNode("b"), "a finding cannot name a blank node"),
            ("acme", Iri(EX + "contract"), f"no IRI value of {EPO.awardedTo}"),
        ],
        ids=["role", "contract", "acme"],
    )
    def test_blank_roles_contracts_and_linked_orgs_are_skipped(self, node, skipped, reason):
        """A finding names its nodes, so detection reads IRIs only."""
        blank = {Iri(EX + node): BlankNode("b")}
        graph = Graph()
        for t in all_triples(award_graph()):
            graph.insert(Triple(*(blank.get(term, term) for term in (t.subject, t.predicate, t.object))))
        assert len(detect_conflicts(award_graph())) == 1
        assert detect_conflicts(graph) == []
        assert _skips(graph) == [(skipped, f"{reason}: detection skips the node")]

    def test_boundary_award_dates_count(self):
        for boundary in ("2015-01-01", "2021-01-01"):
            assert len(detect_conflicts(award_graph(award=boundary))) == 1


def dual_role_graph(award="2019-06-01", r2_start="2018-01-01", r2_end="2020-01-01") -> Graph:
    g = Graph()
    person = Iri(EX + "person")
    org_a, org_b = Iri(EX + "orgA"), Iri(EX + "orgB")
    r1, r2 = Iri(EX + "role1"), Iri(EX + "role2")
    c, e1, e2, e3 = Iri(EX + "c"), Iri(EX + "e1"), Iri(EX + "e2"), Iri(EX + "e3")

    def lit(s):
        return Literal(s, XSD_DATE)

    for role, org, ev, start, end in (
        (r1, org_a, e1, "2017-01-01", "2021-01-01"),
        (r2, org_b, e2, r2_start, r2_end),
    ):
        g.insert(Triple(role, TRO.roleOf, person))
        g.insert(Triple(role, TRO.roleIn, org))
        g.insert(Triple(role, TRO.startDate, lit(start)))
        if end is not None:
            g.insert(Triple(role, TRO.endDate, lit(end)))
        g.insert(Triple(role, TRO.hasEvidence, ev))
    g.insert(Triple(c, EPO.awardedBy, org_a))
    g.insert(Triple(c, EPO.awardedTo, org_b))
    g.insert(Triple(c, EPO.awardDate, lit(award)))
    g.insert(Triple(c, TRO.hasEvidence, e3))
    return g


class TestDualRolePattern:
    def test_fires_with_witness_contract(self):
        (finding,) = detect_conflicts(dual_role_graph())
        assert finding.pattern_id == DUAL_ROLE
        assert finding.contract is None
        assert finding.role_iris == frozenset({Iri(EX + "role1"), Iri(EX + "role2")})
        # overlap of [2017, 2021] and [2018, 2020]
        assert finding.overlap == Interval(date(2018, 1, 1), date(2020, 1, 1))
        # union of both roles' evidence plus the witness contract's
        assert finding.evidence == frozenset({Iri(EX + "e1"), Iri(EX + "e2"), Iri(EX + "e3")})

    def test_contract_outside_overlap_is_no_witness(self):
        assert detect_conflicts(dual_role_graph(award="2020-06-01")) == []

    def test_open_ended_overlap(self):
        (finding,) = detect_conflicts(dual_role_graph(r2_end=None, award="2020-12-31"))
        assert finding.overlap == Interval(date(2018, 1, 1), date(2021, 1, 1))

    def test_same_org_roles_do_not_fire(self):
        g = without(
            dual_role_graph(),
            Triple(Iri(EX + "role2"), TRO.roleIn, Iri(EX + "orgB")),
            Triple(Iri(EX + "c"), EPO.awardedTo, Iri(EX + "orgB")),
        )
        g.insert(Triple(Iri(EX + "role2"), TRO.roleIn, Iri(EX + "orgA")))
        g.insert(Triple(Iri(EX + "c"), EPO.awardedTo, Iri(EX + "orgA")))
        assert detect_conflicts(g) == []


# --- pipeline fixture --------------------------------------------------


def fixture_graph(contracts_csv: str, roles_csv: str) -> Graph:
    contracts, _ = parse_contract_csv(contracts_csv)
    roles, _ = parse_role_csv(roles_csv)
    return build_graph(contracts, roles)


class TestPipelineFixture:
    def test_exactly_one_finding(self, contracts_csv, roles_csv):
        findings = detect_conflicts(fixture_graph(contracts_csv, roles_csv))
        (finding,) = findings
        assert finding.pattern_id == AWARD_TO_LINKED_ORG
        assert finding.person == Iri(DATA + "person/miren-zabala")
        assert finding.contract == Iri(DATA + "contract/EXP-2018%2F0042")
        assert finding.overlap == date(2018, 3, 1)
        assert finding.organizations == frozenset(
            {Iri(DATA + "org/basque-government"), Iri(DATA + "org/acme-construction")}
        )

    def test_award_moved_outside_role(self, contracts_csv, roles_csv):
        moved = contracts_csv.replace("2018-03-01", "2021-01-01")
        assert detect_conflicts(fixture_graph(moved, roles_csv)) == []

    def test_removing_any_triple_creates_nothing_new(self, contracts_csv, roles_csv):
        g = fixture_graph(contracts_csv, roles_csv)
        base_keys = {_finding_key(f)[:6] for f in detect_conflicts(g)}
        for t in all_triples(g):
            for f in detect_conflicts(without(g, t)):
                assert _finding_key(f)[:6] in base_keys, t


# --- oracle equivalence on random graphs --------------------------------


class TestOracleEquivalence:
    def test_random_graphs(self):
        modes = ("any", "free", "planted")
        for seed in range(200):
            rng = random.Random(1000 + seed)
            mode = modes[seed % 3]
            g = random_coi_graph(rng, mode=mode)
            found = detect_conflicts(g)
            assert {_finding_key(f) for f in found} == brute_force_keys(g), (seed, mode)
            assert len({_finding_key(f) for f in found}) == len(found)
            if mode == "free":
                assert found == []
            if mode == "planted":
                role = Iri("http://example.org/data/role/planted")
                assert any(
                    f.pattern_id == AWARD_TO_LINKED_ORG and role in f.role_iris for f in found
                )

    def test_dense_graphs(self):
        """Many contracts per org and org pair, tied dates, boundary hits, both directions."""
        counts = Counter()
        for seed in range(250):
            g = random_coi_graph(random.Random(5000 + seed), mode="dense")
            found = detect_conflicts(g)
            keys = {_finding_key(f) for f in found}
            assert keys == brute_force_keys(g), seed
            assert len(keys) == len(found)
            counts.update(f.pattern_id for f in found)
        # the generator must keep both patterns busy, or the comparison proves little
        assert counts[AWARD_TO_LINKED_ORG] > 500 and counts[DUAL_ROLE] > 500, counts

    def test_detection_is_deterministic(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        g1, g2 = random_coi_graph(rng1), random_coi_graph(rng2)
        f1, f2 = detect_conflicts(g1), detect_conflicts(g2)
        assert [f.sort_key() for f in f1] == [f.sort_key() for f in f2]
        assert [f.sort_key() for f in f1] == sorted(f.sort_key() for f in f1)


# --- work done: candidates examined, not every role pair or awarded contract ---


def _role(g: Graph, role: Iri, person: Iri, org: Iri, start: date, end: date | None) -> None:
    g.insert(Triple(role, TRO.roleOf, person))
    g.insert(Triple(role, TRO.roleIn, org))
    g.insert(Triple(role, TRO.startDate, Literal(start.isoformat(), XSD_DATE)))
    if end is not None:
        g.insert(Triple(role, TRO.endDate, Literal(end.isoformat(), XSD_DATE)))
    g.insert(Triple(role, TRO.hasEvidence, Iri(role.value + "-ev")))


def _contract(g: Graph, contract: Iri, by: Iri, to: Iri, when: date) -> None:
    g.insert(Triple(contract, EPO.awardedBy, by))
    g.insert(Triple(contract, EPO.awardedTo, to))
    g.insert(Triple(contract, EPO.awardDate, Literal(when.isoformat(), XSD_DATE)))
    g.insert(Triple(contract, TRO.hasEvidence, Iri(contract.value + "-ev")))


def disjoint_roles_graph(k: int) -> Graph:
    """One person with ``k`` roles in distinct orgs, no two sharing a day."""
    g = Graph()
    for i in range(k):
        day = date(2000, 1, 1) + timedelta(days=2 * i)
        _role(g, Iri(f"{EX}role{i}"), Iri(EX + "person"), Iri(f"{EX}org{i}"), day, day)
    return g


def idle_links_graph(roles: int, contracts: int) -> Graph:
    """``roles`` people in roles at one org, each linked to an org that wins
    nothing, and ``contracts`` contracts from that org inside every role."""
    g = Graph()
    gov = Iri(EX + "gov")
    for i in range(roles):
        person = Iri(f"{EX}person{i}")
        _role(g, Iri(f"{EX}role{i}"), person, gov, date(2000, 1, 1), None)
        g.insert(Triple(person, TRO.ownerOf, Iri(f"{EX}idle{i}")))
    for j in range(contracts):
        _contract(g, Iri(f"{EX}c{j}"), gov, Iri(f"{EX}winner{j % 7}"), date(2001, 1, 1) + timedelta(days=j))
    return g


@pytest.fixture()
def operations(monkeypatch):
    """Counts the contracts detection examines and the role pairs it intersects."""
    counts = Counter()
    within, intersect = coi._within, Interval.intersect

    def counted_within(contracts, interval):
        found = within(contracts, interval)
        counts["contracts"] += len(found)
        return found

    def counted_intersect(self, other):
        counts["pairs"] += 1
        return intersect(self, other)

    monkeypatch.setattr(coi, "_within", counted_within)
    monkeypatch.setattr(Interval, "intersect", counted_intersect)
    return counts


class TestWorkDone:
    """Detection examines only candidates that can match: trying every role
    pair, or every contract a role's org awarded, fails these at both sizes."""

    @pytest.mark.parametrize("k", [150, 300])
    def test_disjoint_roles_pair_nothing(self, operations, k):
        assert detect_conflicts(disjoint_roles_graph(k)) == []
        assert operations["contracts"] + operations["pairs"] <= k

    @pytest.mark.parametrize("roles, contracts", [(40, 400), (80, 800)])
    def test_links_that_win_nothing_examine_no_contract(self, operations, roles, contracts):
        assert detect_conflicts(idle_links_graph(roles, contracts)) == []
        assert operations["contracts"] + operations["pairs"] <= roles

    def test_sweep_boundaries(self, operations):
        """Equal start dates and an end on the next start overlap; the day after does not."""
        g = Graph()
        person = Iri(EX + "person")
        org = [Iri(f"{EX}org{i}") for i in range(5)]
        d = date.fromisoformat
        for i, start, end in [
            (0, "2020-01-01", "2020-06-30"),
            (1, "2020-01-01", "2020-03-31"),  # starts with role 0
            (2, "2020-06-30", "2020-12-31"),  # starts on role 0's last day
            (3, "2020-07-01", None),  # starts the day after role 0 ends
            (4, "2020-03-31", "2020-03-31"),  # one day, role 1's last
        ]:
            _role(g, Iri(f"{EX}role{i}"), person, org[i], d(start), d(end) if end else None)
        for name, by, to, when in [
            ("c01", 0, 1, "2020-01-01"),
            ("c20", 2, 0, "2020-06-30"),
            ("c03", 0, 3, "2020-06-30"),  # roles 0 and 3 share no day: no witness
            ("c32", 3, 2, "2020-12-31"),
            ("c14", 1, 4, "2020-03-31"),
        ]:
            _contract(g, Iri(EX + name), org[by], org[to], d(when))
        found = detect_conflicts(g)
        assert {_finding_key(f) for f in found} == brute_force_keys(g)
        assert {(tuple(sorted(r.value for r in f.role_iris)), f.overlap) for f in found} == {
            ((EX + "role0", EX + "role1"), Interval(d("2020-01-01"), d("2020-03-31"))),
            ((EX + "role0", EX + "role2"), Interval(d("2020-06-30"), d("2020-06-30"))),
            ((EX + "role2", EX + "role3"), Interval(d("2020-07-01"), d("2020-12-31"))),
            ((EX + "role1", EX + "role4"), Interval(d("2020-03-31"), d("2020-03-31"))),
        }
        # the five overlapping pairs: these four and roles 0 and 4, which no contract links
        assert operations["pairs"] == 5

    def test_tied_dates_match_the_oracle(self):
        """Roles whose starts and ends fall on a few shared days, in few orgs."""
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(6)]
        counts = Counter()
        for seed in range(60):
            rng = random.Random(9000 + seed)
            g = Graph()
            people = [Iri(f"{EX}person{i}") for i in range(2)]
            orgs = [Iri(f"{EX}org{i}") for i in range(4)]
            for i in range(12):
                start = rng.choice(days)
                end = rng.choice([None] + [day for day in days if day >= start])
                _role(g, Iri(f"{EX}role{i}"), rng.choice(people), rng.choice(orgs), start, end)
            for person in people:
                g.insert(Triple(person, TRO.affiliatedWith, rng.choice(orgs)))
            for j in range(8):
                by, to = rng.sample(orgs, 2)
                _contract(g, Iri(f"{EX}c{j}"), by, to, rng.choice(days))
            found = detect_conflicts(g)
            assert {_finding_key(f) for f in found} == brute_force_keys(g), seed
            counts.update(f.pattern_id for f in found)
        assert counts[AWARD_TO_LINKED_ORG] > 50 and counts[DUAL_ROLE] > 50, counts


# --- the benchmark's corpora ----------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["registry", "watchlist", "dossier"])
def test_benchmark_corpora_match_the_oracle(corpus, workload, seed):
    data = corpus.generate(workload, seed)
    contracts, _ = parse_contract_csv(data.contracts_csv)
    roles, _ = parse_role_csv(data.roles_csv)
    g = build_graph(contracts, roles, MintConfig(Iri(corpus.BASE)))
    found = detect_conflicts(g)
    assert found
    assert {_finding_key(f) for f in found} == brute_force_keys(g)


# --- exports ------------------------------------------------------------


class TestExports:
    def test_empty_json(self):
        assert findings_to_json([]) == "[]"

    def test_json_shape(self, contracts_csv, roles_csv):
        findings = detect_conflicts(fixture_graph(contracts_csv, roles_csv))
        data = json.loads(findings_to_json(findings))
        assert len(data) == 1
        obj = data[0]
        assert list(obj.keys()) == [
            "patternId",
            "person",
            "roleIris",
            "contract",
            "organizations",
            "overlap",
            "evidence",
        ]
        assert obj["patternId"] == AWARD_TO_LINKED_ORG
        assert obj["overlap"] == {"date": "2018-03-01"}
        assert obj["organizations"] == sorted(obj["organizations"])

    def test_json_interval_overlap(self):
        findings = detect_conflicts(dual_role_graph(r2_end=None, award="2020-12-31"))
        obj = json.loads(findings_to_json(findings))[0]
        assert obj["overlap"] == {"start": "2018-01-01", "end": "2021-01-01"}
        # r1 still ends 2021-01-01, so a 2022 award is no witness
        assert detect_conflicts(dual_role_graph(r2_end=None, award="2022-01-01")) == []

    def test_json_null_end(self):
        g = without(
            dual_role_graph(r2_end=None, award="2020-12-31"),
            Triple(Iri(EX + "role1"), TRO.endDate, Literal("2021-01-01", XSD_DATE)),
        )
        (finding,) = detect_conflicts(g)
        obj = json.loads(findings_to_json([finding]))[0]
        assert obj["overlap"] == {"start": "2018-01-01", "end": None}


_IRI_TEXT = st.lists(
    st.sampled_from(["%20", "%C3%A9", "%25", "/", "#", "é", "ñ", "ασφάλεια", "\U0001d4b3", "\x7f", "\x85"])
    | st.characters(min_codepoint=0x21, blacklist_categories=("Cs",), blacklist_characters='<>"{}|^`\\'),
    max_size=12,
).map("".join)
_IRIS = st.builds(lambda text: Iri("http://e.org/" + text), _IRI_TEXT)


@st.composite
def any_findings(draw):
    """Any finding ``Finding`` accepts: either pattern or another name, an open or closed interval or a date,
    and sets of IRIs with non-ASCII and %-escaped text, empty where the pattern allows it."""
    # st.text's default alphabet, named: left implicit, the first draw builds hypothesis's codec table and can
    # outlast the health check's time limit when no .hypothesis/ cache holds that table yet
    name = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
    pattern = draw(st.sampled_from([AWARD_TO_LINKED_ORG, DUAL_ROLE]) | name)
    return Finding(
        pattern,
        draw(_IRIS),
        draw(st.frozensets(_IRIS, min_size=2 if pattern == DUAL_ROLE else 0, max_size=4)),
        draw(_IRIS if pattern == AWARD_TO_LINKED_ORG else st.none() | _IRIS),
        draw(st.frozensets(_IRIS, max_size=3)),
        draw(st.dates() | intervals()),
        draw(st.frozensets(_IRIS, min_size=1, max_size=4)),
    )


def dumped(findings: list[Finding]) -> str:
    """The findings as one ``json.dumps`` of the whole payload renders them: the template's reference."""
    payload = [
        {
            "patternId": f.pattern_id,
            "person": f.person.value,
            "roleIris": sorted(r.value for r in f.role_iris),
            "contract": f.contract.value if f.contract else None,
            "organizations": sorted(o.value for o in f.organizations),
            "overlap": (
                {"date": f.overlap.isoformat()}
                if isinstance(f.overlap, date)
                else {"start": f.overlap.start.isoformat(), "end": f.overlap.end.isoformat() if f.overlap.end else None}
            ),
            "evidence": sorted(e.value for e in f.evidence),
        }
        for f in findings
    ]
    return json.dumps(payload, indent=2)


class TestStreamedJson:
    @given(st.lists(any_findings(), max_size=4))
    def test_chunks_are_one_dump_of_the_payload(self, fs):
        chunks = list(coi._findings_chunks(fs))
        assert len(chunks) == len(fs) + 1  # one block per finding, then the closing bracket
        assert "".join(chunks) == dumped(fs) == findings_to_json(fs)

    def test_detect_peaks_no_higher_than_validate(self, corpus, tmp_path):
        """On the role-dense benchmark corpus the findings JSON is 0.66 MB. Streamed one
        block at a time it adds little to the graph both commands hold; rendered whole,
        with the payload it came from, it lifted detect's peak 60% above validate's."""
        data = corpus.generate("watchlist", 1)
        (tmp_path / "contracts.csv").write_text(data.contracts_csv, encoding="utf-8")
        (tmp_path / "roles.csv").write_text(data.roles_csv, encoding="utf-8")
        graph = str(tmp_path / "graph.ttl")

        def peak(*argv):
            tracemalloc.start()
            try:
                assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        csvs = ["--contracts", str(tmp_path / "contracts.csv"), "--roles", str(tmp_path / "roles.csv")]
        for argv in (["ingest", *csvs, "--out", graph], ["validate", "--in", graph]):  # what a first run caches is in neither peak
            assert cli.run(argv, out=io.StringIO(), err=io.StringIO()) == 0
        validate = peak("validate", "--in", graph)
        detect = peak("detect", "--in", graph, "--out", str(tmp_path / "findings.json"))
        assert (tmp_path / "findings.json").stat().st_size > 600_000
        assert detect <= 1.10 * validate, (detect, validate)
