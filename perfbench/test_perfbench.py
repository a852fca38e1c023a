"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json

import corpus
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_byte_identical_corpus():
    for workload in corpus.WORKLOADS:
        first = corpus.generate(workload, 5, 0.2)
        assert corpus.generate(workload, 5, 0.2) == first
        assert corpus.generate(workload, 6, 0.2).contracts_csv != first.contracts_csv
        assert first.contracts_malformed >= len(corpus._CONTRACT_BREAKERS)
        assert first.roles_malformed >= len(corpus._ROLE_BREAKERS)


def test_planted_truths_and_reference_bytes_hold_on_this_commit():
    for workload in corpus.WORKLOADS:
        result = run.benchmark(workload, run.DEFAULT_SEED, seconds=0, trace=False)
        assert result["correct"], workload
        assert result["failed"] == 0
        assert result["attempted"] == run.MIN_PASSES * len(run.COMMANDS)


def test_printed_names_match_benchmark_json():
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(corpus.WORKLOADS)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        result = run.benchmark("registry", 3, seconds=0, trace=trace, scale=0.2)
        assert result["correct"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared
