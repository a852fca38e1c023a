"""Seeded procurement corpora with planted ground truth.

A corpus is the pair of CSV files trokit ingests (contracts and role
evidence, in the two fixed schemas of ``trokit.ingest``) plus what the
generator knows about them: how many rows of each file are valid, and
the conflict-of-interest findings it planted under distinctive ASCII
names. The benchmark checks the program's outputs against that
knowledge, never against the program itself.

The same (workload, seed, scale) always gives byte-identical files.
Row counts, title lengths and malformed-row counts are fixed by the
workload and scale; the seed only moves names, dates, links and order,
so the work per run barely changes between seeds.
"""

from __future__ import annotations

import csv
import io
import random
import re
from dataclasses import dataclass, replace
from datetime import date, timedelta

# The ingest schemas, restated so the generator does not import trokit.
CONTRACT_HEADER = (
    "contract_id",
    "title",
    "awarding_org",
    "awarded_org",
    "award_date",
    "amount_eur",
    "source_url",
)
ROLE_HEADER = (
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
)

BASE = "http://data.example/"
AWARD_TO_LINKED_ORG = "AWARD-TO-LINKED-ORG"
DUAL_ROLE = "DUAL-ROLE"
PLANTED_PER_PATTERN = 3


@dataclass(frozen=True)
class Spec:
    """The shape of one workload at scale 1."""

    contracts: int
    orgs: int  # organizations that hold roles and trade contracts
    awarders: int  # the first `awarders` orgs award every contract
    people: int
    roles_per_person: int
    linked_share: float  # share of people who own or are affiliated with an org
    title_words: tuple[int, int]  # inclusive range of words per title
    multilingual: bool
    malformed_share: float

    def scaled(self, scale: float) -> "Spec":
        def n(value: int) -> int:
            return max(1, round(value * scale))

        return replace(
            self,
            contracts=n(self.contracts),
            orgs=max(self.roles_per_person + 1, n(self.orgs)),
            awarders=n(self.awarders),
            people=n(self.people),
        )


# Why each workload exists is recorded in BENCHMARK.json; the sizes keep
# one pass of all four commands around a second or two on a 2-core box.
WORKLOADS = {
    # contract-heavy, ASCII: per-triple costs dominate, detect examines little
    "registry": Spec(
        contracts=600,
        orgs=120,
        awarders=12,
        people=20,
        roles_per_person=1,
        linked_share=0.3,
        title_words=(3, 8),
        multilingual=False,
        malformed_share=0.01,
    ),
    # role-dense: every role meets every contract inside detect_conflicts
    "watchlist": Spec(
        contracts=680,
        orgs=40,
        awarders=40,
        people=140,
        roles_per_person=6,
        linked_share=0.5,
        title_words=(3, 8),
        multilingual=False,
        malformed_share=0.01,
    ),
    # text-heavy, multilingual: long literals, escapes and NFKD folding
    "dossier": Spec(
        contracts=150,
        orgs=45,
        awarders=9,
        people=75,
        roles_per_person=1,
        linked_share=0.2,
        title_words=(40, 400),
        multilingual=True,
        malformed_share=0.01,
    ),
}


@dataclass(frozen=True)
class Corpus:
    contracts_csv: str
    roles_csv: str
    contracts_valid: int
    contracts_malformed: int
    roles_valid: int
    roles_malformed: int
    planted: tuple[dict, ...]  # expected findings, in the findings.json shape


def slug(ascii_name: str) -> str:
    """trokit's name folding, for the ASCII names the generator plants."""
    return re.sub(r"[^a-z0-9]+", "-", ascii_name.lower()).strip("-")


def iri(kind: str, ascii_name: str) -> str:
    key = ascii_name if kind == "contract" else slug(ascii_name)
    return f"{BASE}{kind}/{key}"


_ASCII_WORDS = (
    "supply maintenance of municipal road lighting cleaning services school "
    "catering software licences hospital equipment consulting audit bridge "
    "repair water network waste collection fleet vehicles office furniture "
    "security training translation printing energy efficiency retrofit "
    "public park design archive digitisation ambulance fuel cards insurance"
).split()
_ACCENTED_WORDS = (
    "adjudicación contratación información Müller Straße Ærø façade crème "
    "São Paulo Kraków Zürich naïve résumé Ångström coöperatie Łódź Dvořák "
    "l'hôpital Ñuñoa Øresund"
).split()
_GREEK_WORDS = "σύμβαση προμήθεια δήμος υπηρεσίες καθαρισμού Αθήνα Θεσσαλονίκη".split()
_CJK_WORDS = "東京都 契約 入札 公共事業 北京市 政府采购 서울특별시 조달".split()
_AWKWARD_WORDS = (
    '"quoted"',
    "back\\slash",
    "C:\\tenders\\2021",
    "a,b,c",
    "tab\there",
    "line\nbreak",
    "«guillemets»",
    "ＦＵＬＬＷＩＤＴＨ",
    "ﬁnance",
    "½-share",
)
_GIVEN = "Ana Jon Miren Iker Laura Pablo Sara Unai Elena Mikel Irene David".split()
_FAMILY = "Garcia Etxeberria Lopez Agirre Martin Zubiri Perez Arana Ruiz Olano".split()
_GIVEN_ML = "José Zoë Françoise Jürgen Søren Ελένη Δημήτρης Łukasz Ørjan Ñico".split()
_FAMILY_ML = "Muñoz Großmann Nørgaard Παπαδόπουλος Čapek 山田 Kovačević O'Brien".split()
_ORG_WORDS = "Northwind Iberia Atlantic Basque Cantabria Ebro Pyrene Bidasoa".split()
_ORG_KINDS = "Logistics Consulting Construction Foods Energy Software Health".split()
_ORG_WORDS_ML = "Ayuntamiento Diputación Müller Δήμος Société Ærø 東京 Łódź".split()
_ROLE_TYPES = ("board member", "director", "advisor", "councillor", "treasurer", "chair")
_PUBLISHERS = ("El Diario", "Gaceta Oficial", "Registro Mercantil", "Noticias de Gipuzkoa")

_START = date(2014, 1, 1)
_END = date(2024, 12, 31)


def _spread(n: int, lo: int, hi: int) -> list[int]:
    """n values evenly spread over [lo, hi], so their total is fixed."""
    if n == 1:
        return [(lo + hi) // 2]
    return [lo + (i * (hi - lo)) // (n - 1) for i in range(n)]


class _Generator:
    def __init__(self, spec: Spec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng

    def day(self, lo: date = _START, hi: date = _END) -> date:
        return lo + timedelta(days=self.rng.randrange((hi - lo).days + 1))

    def title(self, words: int) -> str:
        rng = self.rng
        if not self.spec.multilingual:
            return " ".join(rng.choice(_ASCII_WORDS) for _ in range(words))
        pools = (_ASCII_WORDS, _ASCII_WORDS, _ACCENTED_WORDS, _GREEK_WORDS, _CJK_WORDS, _AWKWARD_WORDS)
        return " ".join(rng.choice(rng.choice(pools)) for _ in range(words))

    def org_name(self, i: int) -> str:
        rng = self.rng
        if self.spec.multilingual:
            return f"{rng.choice(_ORG_WORDS_ML)} {rng.choice(_ORG_WORDS)} {rng.choice(_ORG_KINDS)} {i:04d}"
        return f"{rng.choice(_ORG_WORDS)} {rng.choice(_ORG_KINDS)} {i:04d}"

    def person_name(self, i: int) -> str:
        rng = self.rng
        if self.spec.multilingual:
            return f"{rng.choice(_GIVEN_ML)} {rng.choice(_FAMILY_ML)} {rng.choice(_FAMILY)} {i:04d}"
        return f"{rng.choice(_GIVEN)} {rng.choice(_FAMILY)} {i:04d}"

    def contract_row(self, cid: str, title: str, by: str, to: str, when: date) -> list[str]:
        amount = f"{self.rng.randrange(1000, 5_000_000)}.{self.rng.randrange(100):02d}"
        url = f"https://registry.example.org/contracts/{cid}"
        return [cid, title, by, to, when.isoformat(), amount, url]

    def article(self, words: int) -> list[str]:
        """A news item backing roles: url, title, publisher, date."""
        published = self.day(date(2019, 1, 1))
        n = self.rng.randrange(1_000_000)
        url = f"https://news.example.org/{published.year}/{n:06d}"
        return [url, self.title(words), self.rng.choice(_PUBLISHERS), published.isoformat()]

    def role_row(
        self,
        person: str,
        role_type: str,
        org: str,
        start: date,
        end: date | None,
        relation: str = "",
        related: str = "",
        article: list[str] | None = None,
    ) -> list[str]:
        fields = [person, role_type, org, start.isoformat(), end.isoformat() if end else ""]
        return fields + [relation, related] + (article or self.article(5))

    def interval(self) -> tuple[date, date | None]:
        # every interval covers 2019, so all roles of one person overlap
        start = self.day(_START, date(2018, 12, 31))
        if self.rng.random() < 0.25:
            return start, None
        return start, self.day(date(2020, 1, 1))


# One mutation per rejection reason of ingest's row checks. Each breaks
# a valid row in exactly one way.
_CONTRACT_BREAKERS = (
    lambda r: r + ["surplus field"],
    lambda r: _put(r, 0, ""),
    lambda r: _put(r, 2, ""),
    lambda r: _put(r, 3, ""),
    lambda r: _put(r, 2, "***"),
    lambda r: _put(r, 3, "— · —"),
    lambda r: _put(r, 4, "2021-02-30"),
    lambda r: _put(r, 4, "15/06/2021"),
    lambda r: _put(r, 5, "-1500.00"),
    lambda r: _put(r, 5, "12,5"),
    lambda r: _put(r, 6, "registry.example.org/no-scheme"),
)
_ROLE_BREAKERS = (
    lambda r: r[:-1],
    lambda r: _put(r, 0, ""),
    lambda r: _put(r, 1, ""),
    lambda r: _put(r, 2, ""),
    lambda r: _put(r, 0, "???"),
    lambda r: _put(r, 1, "..."),
    lambda r: _put(r, 2, "!!!"),
    lambda r: _put(r, 3, "2020-13-01"),
    lambda r: _put(r, 4, "soon"),
    lambda r: _put(r, 4, (date.fromisoformat(r[3]) - timedelta(days=1)).isoformat()),
    lambda r: _put(_put(r, 5, "cousin"), 6, "Some Org"),
    lambda r: _put(_put(r, 5, "owner"), 6, ""),
    lambda r: _put(_put(r, 5, ""), 6, "Some Org"),
    lambda r: _put(_put(r, 5, "affiliated"), 6, "&&&"),
    lambda r: _put(r, 7, "news item 5"),
    lambda r: _put(r, 10, "2020-1-5"),
)


def _put(row: list[str], index: int, value: str) -> list[str]:
    out = list(row)
    out[index] = value
    return out


def _malformed(valid: list[list[str]], breakers, share: float, rng: random.Random) -> list[list[str]]:
    count = max(len(breakers), round(len(valid) * share))
    return [breakers[i % len(breakers)](rng.choice(valid)) for i in range(count)]


def _plant(gen: _Generator) -> tuple[list[list[str]], list[list[str]], list[dict]]:
    """Rows for the planted findings, and the findings they must produce."""
    contracts, roles, findings = [], [], []
    for k in range(1, PLANTED_PER_PATTERN + 1):
        person = f"Planted Awardee Person {k:02d}"
        body = f"Planted Awarding Body {k:02d}"
        firm = f"Planted Linked Firm {k:02d}"
        cid = f"PLANTED-AWARD-{k:02d}"
        relation = "owner" if k % 2 else "affiliated"
        roles.append(
            gen.role_row(person, "director", body, date(2018, 1, 1), date(2020, 12, 31), relation, firm)
        )
        contracts.append(gen.contract_row(cid, "planted award", body, firm, date(2019, 6, 15)))
        findings.append(
            {
                "patternId": AWARD_TO_LINKED_ORG,
                "person": iri("person", person),
                "contract": iri("contract", cid),
                "organizations": sorted((iri("org", body), iri("org", firm))),
            }
        )

        person = f"Planted Dual Person {k:02d}"
        left = f"Planted Dual Org Left {k:02d}"
        right = f"Planted Dual Org Right {k:02d}"
        cid = f"PLANTED-DUAL-{k:02d}"
        roles.append(gen.role_row(person, "advisor", left, date(2017, 1, 1), date(2021, 12, 31)))
        roles.append(gen.role_row(person, "chair", right, date(2019, 1, 1), None))
        contracts.append(gen.contract_row(cid, "planted dual", left, right, date(2020, 3, 1)))
        findings.append(
            {
                "patternId": DUAL_ROLE,
                "person": iri("person", person),
                "contract": None,
                "organizations": sorted((iri("org", left), iri("org", right))),
            }
        )
    return contracts, roles, findings


def _csv(header: tuple[str, ...], rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def generate(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    spec = WORKLOADS[workload].scaled(scale)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    gen = _Generator(spec, rng)

    orgs = [gen.org_name(i) for i in range(spec.orgs)]
    awarders = orgs[: spec.awarders]
    lo, hi = spec.title_words
    contract_words = _spread(spec.contracts, lo, hi)
    rng.shuffle(contract_words)
    contracts = []
    for i, words in enumerate(contract_words):
        by = rng.choice(awarders)
        to = rng.choice([o for o in rng.sample(orgs, 2) if o != by])
        contracts.append(gen.contract_row(f"C-{i:06d}", gen.title(words), by, to, gen.day()))

    # one news item per person backs all of that person's roles
    article_words = _spread(spec.people, lo, hi) if spec.multilingual else [5] * spec.people
    rng.shuffle(article_words)
    roles = []
    for p, words in enumerate(article_words):
        person = gen.person_name(p)
        article = gen.article(words)
        linked = rng.random() < spec.linked_share
        for j, org in enumerate(rng.sample(orgs, spec.roles_per_person)):
            start, end = gen.interval()
            relation, related = "", ""
            if linked and j == 0:
                relation, related = rng.choice(("owner", "affiliated")), rng.choice(orgs)
            roles.append(
                gen.role_row(person, rng.choice(_ROLE_TYPES), org, start, end, relation, related, article)
            )

    planted_contracts, planted_roles, planted = _plant(gen)
    contracts += planted_contracts
    roles += planted_roles
    bad_contracts = _malformed(contracts, _CONTRACT_BREAKERS, spec.malformed_share, rng)
    bad_roles = _malformed(roles, _ROLE_BREAKERS, spec.malformed_share, rng)
    contract_rows = contracts + bad_contracts
    role_rows = roles + bad_roles
    rng.shuffle(contract_rows)
    rng.shuffle(role_rows)
    return Corpus(
        contracts_csv=_csv(CONTRACT_HEADER, contract_rows),
        roles_csv=_csv(ROLE_HEADER, role_rows),
        contracts_valid=len(contracts),
        contracts_malformed=len(bad_contracts),
        roles_valid=len(roles),
        roles_malformed=len(bad_roles),
        planted=tuple(planted),
    )
