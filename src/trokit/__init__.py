"""trokit: build, validate, and query transparency knowledge graphs.

Pipeline: CSV records in, deterministic IRIs minted, triples merged
into an indexed graph, constraints checked with a graded report, and
temporal co-occurrence patterns surfaced as candidate
conflict-of-interest findings. Turtle in and out.
"""

from .coi import (
    AWARD_TO_LINKED_ORG,
    DUAL_ROLE,
    Finding,
    detect_conflicts,
    findings_to_json,
)
from .ingest import (
    CONTRACT_HEADER,
    ROLE_HEADER,
    ContractRecord,
    CsvSyntaxError,
    HeaderMismatchError,
    IngestReport,
    RoleEvidenceRecord,
    build_graph,
    parse_contract_csv,
    parse_role_csv,
)
from .minting import (
    EmptySlugError,
    MintConfig,
    mint_entity_iri,
    mint_role_iri,
    normalize_name,
)
from .namespaces import default_prefixes
from .rdf_core import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    ParseError,
    Term,
    Triple,
    canonical_ntriples,
    parse_turtle,
    serialize_turtle,
)
from .util import Interval, InvalidIntervalError
from .validate import Report, ReportEntry, Severity, check
from .vocab import (
    Disjointness,
    PropertyRange,
    RequiredProperty,
    SubClassOf,
    TermKind,
    VocabTerm,
    Vocabulary,
    builtin_vocabulary,
    vocabulary_graph,
)

__version__ = "0.1.0"

__all__ = [
    "AWARD_TO_LINKED_ORG",
    "BlankNode",
    "CONTRACT_HEADER",
    "ContractRecord",
    "CsvSyntaxError",
    "DUAL_ROLE",
    "Disjointness",
    "EmptySlugError",
    "Finding",
    "Graph",
    "HeaderMismatchError",
    "IngestReport",
    "Interval",
    "InvalidIntervalError",
    "Iri",
    "Literal",
    "MintConfig",
    "ParseError",
    "PropertyRange",
    "ROLE_HEADER",
    "Report",
    "ReportEntry",
    "RequiredProperty",
    "RoleEvidenceRecord",
    "Severity",
    "SubClassOf",
    "Term",
    "TermKind",
    "Triple",
    "VocabTerm",
    "Vocabulary",
    "build_graph",
    "builtin_vocabulary",
    "canonical_ntriples",
    "check",
    "default_prefixes",
    "detect_conflicts",
    "findings_to_json",
    "mint_entity_iri",
    "mint_role_iri",
    "normalize_name",
    "parse_contract_csv",
    "parse_role_csv",
    "parse_turtle",
    "serialize_turtle",
    "vocabulary_graph",
]
