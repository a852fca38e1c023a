"""Spans, counters and probes for the traced benchmark run.

Tracing lives in the benchmark, not in trokit: ``install`` swaps the
public stage functions for timing wrappers in every trokit module that
holds them (so ``cli.check`` and ``validate.check`` are both caught),
and ``restore`` puts the originals back. Stage calls become spans
(``perf_counter`` start and end, parent span, pass id), kept in memory.
Hot calls (``Graph.insert``/``match``, minting) only add to per-pass
counters, because a span each would cost more than the call.
"""

from __future__ import annotations

import gc
import statistics
import sys
import timeit
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# (defining module, attribute, span name) for each public stage function
SPANS = (
    ("trokit.ingest", "parse_contract_csv", "ingest.parse_contract_csv"),
    ("trokit.ingest", "parse_role_csv", "ingest.parse_role_csv"),
    ("trokit.ingest", "build_graph", "ingest.build_graph"),
    ("trokit.rdf_core.turtle", "parse_turtle", "rdf_core.turtle.parse_turtle"),
    ("trokit.rdf_core.turtle", "serialize_turtle", "rdf_core.turtle.serialize_turtle"),
    ("trokit.rdf_core.ntriples", "canonical_ntriples", "rdf_core.ntriples.canonical_ntriples"),
    ("trokit.validate", "check", "validate.check"),
    ("trokit.validate", "infer_types", "validate.infer_types"),
    ("trokit.vocab", "builtin_vocabulary", "vocab.builtin_vocabulary"),
    ("trokit.vocab", "subclass_closure", "vocab.subclass_closure"),
    ("trokit.coi", "detect_conflicts", "coi.detect_conflicts"),
    ("trokit.coi", "findings_to_json", "coi.findings_to_json"),
)
# (defining module, attribute, counter name) for hot calls
COUNTERS = (
    ("trokit.rdf_core.graph", "Graph.insert", "graph.insert"),
    ("trokit.rdf_core.graph", "Graph.match", "graph.match"),
    ("trokit.minting", "mint_entity_iri", "minting.mint"),
    ("trokit.minting", "mint_role_iri", "minting.mint"),
)
# calls that materialise every triple; nested ones (copy -> triples) count once
FULL_SCANS = (
    ("trokit.rdf_core.graph", "Graph.triples"),
    ("trokit.rdf_core.graph", "Graph.copy"),
    ("trokit.rdf_core.graph", "Graph.__iter__"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans
    pass_id: int


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0
    hits: int = 0  # calls that returned True (Graph.insert: the triple was new)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.facts: dict[str, int] = defaultdict(int)
        self.pass_id = 0
        self._open: list[int] = []
        self._scan_depth = 0

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.counters = defaultdict(Counter)
        self.facts = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.pass_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            counter = self.counters[name]
            counter.seconds += perf_counter() - start
            counter.calls += 1
            counter.hits += result is True
            return result

        return wrapper

    def _scanning(self, fn):
        def wrapper(*args, **kwargs):
            if self._scan_depth == 0:
                self.facts["full_scans"] += 1
            self._scan_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._scan_depth -= 1

        return wrapper

    def _observe(self, name: str, result) -> None:
        if name in ("ingest.parse_contract_csv", "ingest.parse_role_csv"):
            report = result[1]
            self.facts["rows_accepted"] += report.accepted
            self.facts["rows_total"] += report.total
        elif name == "coi.detect_conflicts":
            for finding in result:
                self.facts[f"findings.{finding.pattern_id}"] += 1

    def install(self):
        """Wrap the stage functions; returns a function that undoes it."""
        plan = [(m, a, lambda fn, n=n: self._spanned(n, fn)) for m, a, n in SPANS]
        plan += [(m, a, lambda fn, n=n: self._counted(n, fn)) for m, a, n in COUNTERS]
        plan += [(m, a, self._scanning) for m, a in FULL_SCANS]
        undo = []
        for module, attr, wrap in plan:
            original = _lookup(module, attr)
            if original is None:  # gone from trokit: nothing can call it
                continue
            wrapped = wrap(original)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                undo.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            for holder in _trokit_modules():
                for key in [k for k, v in vars(holder).items() if v is original]:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)

        def restore() -> None:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

        return restore

    def span_times(self, pass_id: int):
        """Total time, self time (minus child spans) and calls per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        for _, span in mine:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        for i, span in mine:
            duration = span.end - span.start
            total[span.name] += duration
            own[span.name] += duration - children[i]
            calls[span.name] += 1
        return total, own, calls

    def pass_layers(self, pass_id: int, ttl_bytes: int) -> dict[str, float]:
        """Per-layer numbers of one traced pass (counters of the current pass)."""
        total, own, calls = self.span_times(pass_id)
        insert = self.counters["graph.insert"]
        match = self.counters["graph.match"]
        mint = self.counters["minting.mint"]
        facts = self.facts
        parse_s = total["rdf_core.turtle.parse_turtle"]
        serialize_s = total["rdf_core.turtle.serialize_turtle"]
        return {
            "ingest.parse_csv_s": total["ingest.parse_contract_csv"] + total["ingest.parse_role_csv"],
            "ingest.build_graph_s": total["ingest.build_graph"],
            "ingest.accept_ratio": _ratio(facts["rows_accepted"], facts["rows_total"]),
            "minting.mint_calls": mint.calls,
            "minting.mint_s": mint.seconds,
            "rdf_core.graph.insert_calls": insert.calls,
            "rdf_core.graph.insert_s": insert.seconds,
            "rdf_core.graph.insert_new_ratio": _ratio(insert.hits, insert.calls),
            "rdf_core.graph.match_calls": match.calls,
            "rdf_core.graph.match_s": match.seconds,
            "rdf_core.graph.full_scans": facts["full_scans"],
            "rdf_core.turtle.parse_s": parse_s,
            "rdf_core.turtle.parse_mb_per_s": _ratio(
                calls["rdf_core.turtle.parse_turtle"] * ttl_bytes / 1e6, parse_s
            ),
            "rdf_core.turtle.serialize_s": serialize_s,
            "rdf_core.turtle.serialize_mb_per_s": _ratio(
                calls["rdf_core.turtle.serialize_turtle"] * ttl_bytes / 1e6, serialize_s
            ),
            "rdf_core.ntriples.canonical_s": total["rdf_core.ntriples.canonical_ntriples"],
            "vocab.builtin_calls": calls["vocab.builtin_vocabulary"],
            "vocab.builtin_s": total["vocab.builtin_vocabulary"],
            "vocab.closure_s": total["vocab.subclass_closure"],
            "validate.check_s": total["validate.check"],
            "validate.infer_types_s": total["validate.infer_types"],
            "validate.check_self_s": own["validate.check"],
            "coi.detect_s": total["coi.detect_conflicts"],
            "coi.findings_to_json_s": total["coi.findings_to_json"],
            "coi.findings.award": facts["findings.AWARD-TO-LINKED-ORG"],
            "coi.findings.dual_role": facts["findings.DUAL-ROLE"],
            **{f"{name}.self_s": own[name] for name in sorted(own) if name.startswith("cli.")},
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _trokit_modules():
    return [m for n, m in list(sys.modules.items()) if n == "trokit" or n.startswith("trokit.")]


def _lookup(module: str, attr: str):
    obj = sys.modules.get(module)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def probes() -> dict[str, float]:
    """Per-call cost of hot term operations, in microseconds."""
    rdf_core = sys.modules["trokit.rdf_core"]
    tro = sys.modules["trokit.namespaces"].TRO
    literal = rdf_core.Literal("2019-06-15", rdf_core.XSD_DATE)
    iri_text = "http://data.example/org/northwind-logistics-0001"

    def per_call_us(fn, number: int = 20_000) -> float:
        runs = timeit.repeat(fn, number=number, repeat=5)
        return statistics.median(runs) / number * 1e6

    return {
        "rdf_core.model.iri_new_us": per_call_us(lambda: rdf_core.Iri(iri_text)),
        "rdf_core.model.n3_us": per_call_us(literal.n3),
        "namespaces.attr_us": per_call_us(lambda: tro.roleOf),
    }


def memory(text: str) -> dict[str, float]:
    """Graph bytes per triple and peak parse memory, under tracemalloc."""
    parse_turtle = sys.modules["trokit.rdf_core"].parse_turtle
    gc.collect()
    tracemalloc.start()
    try:
        graph = parse_turtle(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "rdf_core.graph.bytes_per_triple": held / len(graph),
        "rdf_core.turtle.parse_peak_mb": peak / 1e6,
    }
