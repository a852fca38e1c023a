"""trokit's own stages read the graph's indexes; none materialises or copies it."""

import io

import pytest

from trokit import (
    build_graph,
    builtin_vocabulary,
    canonical_ntriples,
    check,
    detect_conflicts,
    parse_contract_csv,
    parse_role_csv,
    serialize_turtle,
)
from trokit.cli import run
from trokit.rdf_core import Graph


@pytest.fixture()
def no_materialisation(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the whole graph was materialised or copied")

    for name in ("triples", "copy", "__iter__", "match"):
        monkeypatch.setattr(Graph, name, refuse)


def test_stages_walk_the_indexes(contracts_csv, roles_csv, no_materialisation):
    graph = build_graph(parse_contract_csv(contracts_csv)[0], parse_role_csv(roles_csv)[0])
    assert check(graph, builtin_vocabulary()).entries == ()
    assert detect_conflicts(graph)
    assert serialize_turtle(graph)
    assert canonical_ntriples(graph)


def test_cli_commands_walk_the_indexes(tmp_path, contracts_csv, roles_csv, no_materialisation):
    (tmp_path / "contracts.csv").write_text(contracts_csv, encoding="utf-8")
    (tmp_path / "roles.csv").write_text(roles_csv, encoding="utf-8")
    ttl = str(tmp_path / "graph.ttl")
    commands = [
        ["ingest", "--contracts", str(tmp_path / "contracts.csv"),
         "--roles", str(tmp_path / "roles.csv"), "--out", ttl],
        ["validate", "--in", ttl],
        ["detect", "--in", ttl, "--out", str(tmp_path / "findings.json")],
        ["export", "--in", ttl, "--format", "ntriples", "--out", str(tmp_path / "graph.nt")],
        ["export", "--in", ttl, "--format", "turtle", "--out", str(tmp_path / "again.ttl")],
    ]
    for argv in commands:
        err = io.StringIO()
        assert run(argv, out=io.StringIO(), err=err) == 0, (argv, err.getvalue())
