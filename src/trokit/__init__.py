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
    contract_to_triples,
    parse_contract_csv,
    parse_role_csv,
    role_to_triples,
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
from .validate import Report, ReportEntry, Severity, check, infer_types
from .vocab import (
    Disjointness,
    PropertyRange,
    RequiredProperty,
    SubClassOf,
    TermKind,
    UnknownClassError,
    VocabTerm,
    Vocabulary,
    builtin_vocabulary,
    subclass_closure,
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
    "UnknownClassError",
    "VocabTerm",
    "Vocabulary",
    "build_graph",
    "builtin_vocabulary",
    "canonical_ntriples",
    "check",
    "contract_to_triples",
    "default_prefixes",
    "detect_conflicts",
    "findings_to_json",
    "infer_types",
    "mint_entity_iri",
    "mint_role_iri",
    "normalize_name",
    "parse_contract_csv",
    "parse_role_csv",
    "parse_turtle",
    "role_to_triples",
    "serialize_turtle",
    "subclass_closure",
    "vocabulary_graph",
]
