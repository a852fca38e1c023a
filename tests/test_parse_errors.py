"""Every ParseError message, line and column is pinned on seeded mutations.

The cases mutate one document that uses every construct of the Turtle
subset (``fixtures/parse_errors.ttl``): a truncation at every offset
(so at every token boundary), the deletion of each occurrence of a
syntax character, and the insertion of each syntax character at a
seeded sample of offsets. ``fixtures/parse_errors.json`` records, per
case, either the exact error or a digest of the graph parsed. Each
error names the first fault in the text: the first token that does not
lex, or the first token the grammar does not accept there. The fixture
is regenerated only when a message is changed on purpose:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from trokit import ParseError, parse_turtle

FIXTURES = Path(__file__).parent / "fixtures"
DOCUMENT = (FIXTURES / "parse_errors.ttl").read_text(encoding="utf-8")
RECORDED = FIXTURES / "parse_errors.json"
SYNTAX = [".", ";", ",", "^", "@", '"', "<", ">", ":", "_", "#", "\\", "\n"]
SEED = 20261018
INSERTIONS_PER_CHARACTER = 120


def cases(text: str = DOCUMENT) -> dict[str, str]:
    """Case id -> mutated text, in a fixed order."""
    rng = random.Random(SEED)
    out = {f"truncate {i}": text[:i] for i in range(len(text) + 1)}
    for ch in SYNTAX:
        for i in (i for i, c in enumerate(text) if c == ch):
            out[f"delete {ch!r} {i}"] = text[:i] + text[i + 1 :]
        for i in sorted(rng.sample(range(len(text) + 1), INSERTIONS_PER_CHARACTER)):
            out[f"insert {ch!r} {i}"] = text[:i] + ch + text[i:]
    return out


def outcome(text: str) -> list:
    """["error", message, line, column], or ["graph", triples, digest of the sorted N-Triples lines]."""
    try:
        graph = parse_turtle(text)
    except ParseError as exc:
        return ["error", exc.message, exc.line, exc.col]
    lines = sorted(f"{s.n3()} {p.n3()} {o.n3()} ." for s, po in graph._spo.items() for p, os in po.items() for o in os)
    return ["graph", len(graph), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]]


CASES = cases()


@pytest.fixture(scope="module")
def expected() -> dict[str, list]:
    return json.loads(RECORDED.read_text(encoding="utf-8"))


def test_the_cases_are_the_recorded_ones(expected):
    assert len(CASES) >= 2000
    assert list(CASES) == list(expected)
    kinds = {o[0] for o in expected.values()}
    assert kinds == {"error", "graph"}


@pytest.mark.parametrize("chunk", range(8))
def test_each_mutation_parses_or_raises_the_recorded_error(chunk, expected):
    # any exception but ParseError escapes and fails the test
    ids = list(CASES)[chunk::8]
    found = {case: outcome(CASES[case]) for case in ids}
    assert {case: o for case, o in found.items() if o != expected[case]} == {}


def offset(text: str, line: int, col: int) -> int:
    """The offset of a 1-based line and column: lines end at newline, columns count code points."""
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1


def grammar_fault_before(text: str, at: int) -> list | None:
    """The outcome of parsing text[:at] if it is a grammar error before at, else None."""
    found = outcome(text[:at])
    if found[0] == "error" and found[1].startswith(("expected ", "undeclared prefix")):
        if offset(text, found[2], found[3]) < at:
            return found
    return None


def test_no_grammar_fault_comes_before_the_reported_error():
    # the text before a reported error lexes and parses up to its end, or fails there
    # for want of more text: an earlier grammar fault would be the first fault
    earlier = {}
    for case, text in CASES.items():
        found = outcome(text)
        if found[0] == "error":
            fault = grammar_fault_before(text, offset(text, found[2], found[3]))
            if fault is not None:
                earlier[case] = (found, fault)
    assert earlier == {}


if __name__ == "__main__":
    lines = [f"{json.dumps(case)}: {json.dumps(outcome(text), ensure_ascii=False)}" for case, text in CASES.items()]
    RECORDED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(CASES)} cases to {RECORDED}", file=sys.stderr)
