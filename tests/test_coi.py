"""Conflict-pattern detection against an independent brute-force oracle."""

import json
import random
import re
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trokit import (
    AWARD_TO_LINKED_ORG,
    DUAL_ROLE,
    Finding,
    Graph,
    Interval,
    InvalidIntervalError,
    Iri,
    Literal,
    Triple,
    build_graph,
    detect_conflicts,
    findings_to_json,
    parse_contract_csv,
    parse_role_csv,
)
from trokit.namespaces import EPO, TRO
from trokit.rdf_core import XSD_DATE

from conftest import random_coi_graph

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


def brute_force_keys(graph: Graph) -> set:
    """Recompute both patterns with plain loops over the triple list."""
    triples = list(graph.triples())
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
        "tweaks",
        [
            {"evidence": False},  # role without evidence is skipped
            {"extra_start": "2015-02-01"},  # ambiguous start date
            {"start": "not-a-date"},
            {"end": "2014-01-01"},  # ends before it starts
            {"awarded_to": False},
            {"extra_award": "2018-04-01"},  # ambiguous award date
        ],
    )
    def test_malformed_nodes_are_skipped(self, tweaks):
        assert detect_conflicts(award_graph(**tweaks)) == []

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
        g = dual_role_graph()
        g.remove(Triple(Iri(EX + "role2"), TRO.roleIn, Iri(EX + "orgB")))
        g.insert(Triple(Iri(EX + "role2"), TRO.roleIn, Iri(EX + "orgA")))
        g.remove(Triple(Iri(EX + "c"), EPO.awardedTo, Iri(EX + "orgB")))
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
        for t in g.triples():
            smaller = g.copy()
            smaller.remove(t)
            for f in detect_conflicts(smaller):
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
        g = dual_role_graph(r2_end=None, award="2020-12-31")
        g.remove(Triple(Iri(EX + "role1"), TRO.endDate, Literal("2021-01-01", XSD_DATE)))
        (finding,) = detect_conflicts(g)
        obj = json.loads(findings_to_json([finding]))[0]
        assert obj["overlap"] == {"start": "2018-01-01", "end": None}
