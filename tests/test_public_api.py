"""The public surface, listed name by name.

Adding or removing public API changes one of these sets, so it shows up
as a reviewed diff rather than as a side effect.
"""

import pytest

import trokit
from trokit import Graph, rdf_core

TROKIT = {
    "AWARD_TO_LINKED_ORG", "BlankNode", "CONTRACT_HEADER", "ContractRecord", "CsvSyntaxError", "DUAL_ROLE",
    "Disjointness", "EmptySlugError", "Finding", "Graph", "HeaderMismatchError", "IngestReport", "Interval",
    "InvalidIntervalError", "Iri", "Literal", "MintConfig", "ParseError", "PropertyRange", "ROLE_HEADER",
    "Report", "ReportEntry", "RequiredProperty", "RoleEvidenceRecord", "Severity", "SubClassOf", "Term",
    "TermKind", "Triple", "VocabTerm", "Vocabulary", "build_graph", "builtin_vocabulary", "canonical_ntriples",
    "check", "default_prefixes", "detect_conflicts", "findings_to_json", "mint_entity_iri", "mint_role_iri",
    "normalize_name", "parse_contract_csv", "parse_role_csv", "parse_turtle", "serialize_turtle",
    "vocabulary_graph",
}
RDF_CORE = {
    "BlankNode", "Graph", "Iri", "Literal", "ParseError", "RDF_LANG_STRING", "RDF_TYPE", "Term", "Triple",
    "XSD_ANY_URI", "XSD_DATE", "XSD_DECIMAL", "XSD_INTEGER", "XSD_STRING", "canonical_ntriples",
    "parse_turtle", "serialize_turtle",
}
GRAPH_METHODS = {"insert", "match", "subjects", "objects", "value"}
GRAPH_PROTOCOL = {"__len__", "__contains__", "__iter__"}


@pytest.mark.parametrize("module, names", [(trokit, TROKIT), (rdf_core, RDF_CORE)], ids=["trokit", "rdf_core"])
def test_all_is_the_listed_set_and_resolves(module, names):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == names
    for name in names:
        assert getattr(module, name) is not None, name


def test_graph_public_methods():
    public = {name for name in vars(Graph) if not name.startswith("_")}
    assert public == GRAPH_METHODS
    assert all(callable(getattr(Graph, name)) for name in GRAPH_METHODS | GRAPH_PROTOCOL)
    assert {name for name in vars(Graph()) if not name.startswith("_")} == {"prefixes"}
