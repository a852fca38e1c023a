"""The vocabulary registry: terms, axioms, and per-class constraints.

Holds the toolkit's built-in vocabulary (upper classes plus the
properties the ingestion pipeline emits) and can write it back out as
an ontology graph. The registry is a closed world: validation and
inference consult it, never the open web.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Union

from .namespaces import DC, DCTERMS, EPO, GIST, GR, OWL, RDFS, SCHEMA, TRO, VANN, XSD, default_prefixes
from .rdf_core import RDF_TYPE, XSD_DATE, Graph, Iri, Literal, Triple

ONTOLOGY_IRI = Iri("http://ehu.eus/tro")
ONTOLOGY_VERSION = "1.0.0"

_ORIGIN_BASES = [
    (TRO.base, "tro"),
    (EPO.base, "epo"),
    (GIST.base, "gist"),
    (SCHEMA.base, "schema"),
    (GR.base, "gr"),
    (XSD.base, "xsd"),
]


class TermKind(str, Enum):
    CLASS = "class"
    OBJECT_PROPERTY = "object-property"
    DATA_PROPERTY = "data-property"
    ANNOTATION_PROPERTY = "annotation-property"


@dataclass(frozen=True, slots=True)
class VocabTerm:
    iri: Iri
    kind: TermKind
    label: str
    definition: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError(f"term {self.iri.value} has an empty label")

    @property
    def origin(self) -> str:
        """Short name of the namespace the term comes from ('' if foreign)."""
        for base, name in _ORIGIN_BASES:
            if self.iri.value.startswith(base):
                return name
        return ""


@dataclass(frozen=True, slots=True)
class Disjointness:
    classes: frozenset[Iri]

    def __post_init__(self) -> None:
        if len(self.classes) < 2:
            raise ValueError("a disjointness set needs at least 2 classes")


@dataclass(frozen=True, slots=True)
class RequiredProperty:
    # every instance of on_class must carry at least one value of prop
    on_class: Iri
    prop: Iri


@dataclass(frozen=True, slots=True)
class PropertyRange:
    prop: Iri
    range: Iri
    range_kind: str  # "class" or "datatype"

    def __post_init__(self) -> None:
        if self.range_kind not in ("class", "datatype"):
            raise ValueError(f"bad range kind: {self.range_kind!r}")


@dataclass(frozen=True, slots=True)
class SubClassOf:
    sub: Iri
    sup: Iri


SchemaConstraint = Union[Disjointness, RequiredProperty, PropertyRange, SubClassOf]


@dataclass(frozen=True)
class Vocabulary:
    """Immutable term registry plus constraints.

    Construction verifies that constraints only mention registered
    terms (datatype range IRIs excepted: XSD datatypes are not terms)
    and that the subclass relation is acyclic; it also computes each
    class's subclass closure, once.
    """

    terms: dict[Iri, VocabTerm]
    constraints: tuple[SchemaConstraint, ...]

    # class -> itself plus all its transitive superclasses
    _closures: dict[Iri, frozenset[Iri]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for constraint in self.constraints:
            for iri in self._referenced(constraint):
                if iri not in self.terms:
                    raise ValueError(f"constraint references unknown term {iri.value}")
        edges = self.subclass_edges()
        closures: dict[Iri, frozenset[Iri]] = {}
        on_path: set[Iri] = set()

        def close(node: Iri) -> frozenset[Iri]:
            if node in on_path:
                raise ValueError(f"subclass cycle through {node.value}")
            if node not in closures:
                on_path.add(node)
                closures[node] = frozenset({node}).union(*map(close, edges.get(node, ())))
                on_path.discard(node)
            return closures[node]

        for sub in edges:  # from every edge, so a cycle through properties is caught too
            close(sub)
        classes = {iri: close(iri) for iri, term in self.terms.items() if term.kind == TermKind.CLASS}
        object.__setattr__(self, "_closures", classes)

    @staticmethod
    def _referenced(constraint: SchemaConstraint) -> list[Iri]:
        if isinstance(constraint, Disjointness):
            return list(constraint.classes)
        if isinstance(constraint, RequiredProperty):
            return [constraint.on_class, constraint.prop]
        if isinstance(constraint, PropertyRange):
            if constraint.range_kind == "class":
                return [constraint.prop, constraint.range]
            return [constraint.prop]
        return [constraint.sub, constraint.sup]

    def subclass_edges(self) -> dict[Iri, set[Iri]]:
        edges: dict[Iri, set[Iri]] = {}
        for constraint in self.constraints:
            if isinstance(constraint, SubClassOf):
                edges.setdefault(constraint.sub, set()).add(constraint.sup)
        return edges

    def classes(self) -> list[VocabTerm]:
        return [t for t in self.terms.values() if t.kind == TermKind.CLASS]

    def disjointness_sets(self) -> list[Disjointness]:
        return [c for c in self.constraints if isinstance(c, Disjointness)]

    def required_properties(self) -> list[RequiredProperty]:
        return [c for c in self.constraints if isinstance(c, RequiredProperty)]

    def property_ranges(self) -> list[PropertyRange]:
        return [c for c in self.constraints if isinstance(c, PropertyRange)]


def _class(iri: Iri, label: str, definition: str) -> VocabTerm:
    return VocabTerm(iri, TermKind.CLASS, label, definition)


def _obj_prop(iri: Iri, label: str, definition: str) -> VocabTerm:
    return VocabTerm(iri, TermKind.OBJECT_PROPERTY, label, definition)


def _data_prop(iri: Iri, label: str, definition: str) -> VocabTerm:
    return VocabTerm(iri, TermKind.DATA_PROPERTY, label, definition)


def builtin_vocabulary() -> Vocabulary:
    """The fixed vocabulary this toolkit ships.

    Class definitions are the ontology's own wording; the Commitment
    definition and all property terms are this toolkit's (the source
    ontology fixes only their semantics, not their text).
    """
    terms = [
        _class(
            EPO.Contract,
            "Contract",
            "A voluntary, deliberate, and legally binding agreement between "
            "two or more competent parties",
        ),
        _class(
            GIST.Organization,
            "Organization",
            "An organization (Corporation, Government Service, Union, etc.)",
        ),
        _class(
            TRO.Evidence,
            "Evidence",
            "An evidence is a document that backs an statement (Usually the "
            "role of a person in an entity, or the relation between people) "
            "and it must have a URL. Evidences include: News Articles, Open "
            "Data portals, public profiles, etc. This is not legal evidence",
        ),
        _class(
            SCHEMA.Person,
            "Person",
            "A physical person with a compulsory name. She can have an email, "
            "an internet profile (e.g. LinkedIn) etc. Every person has a role.",
        ),
        _class(
            TRO.Role,
            "Role",
            "The function performed by a person in an entity, during a given "
            "time, with an evidence",
        ),
        _class(
            TRO.Commitment,
            "Commitment",
            "A pledge or obligation undertaken by a person or an organization, "
            "recorded so it can be examined alongside roles and contracts.",
        ),
        _obj_prop(TRO.roleOf, "role of", "The person who holds this role."),
        _obj_prop(TRO.roleIn, "role in", "The organization in which this role is held."),
        _obj_prop(
            TRO.hasEvidence,
            "has evidence",
            "Links a statement-bearing node to a document backing it.",
        ),
        _data_prop(
            TRO.evidenceURL,
            "evidence URL",
            "The URL at which the evidence document can be retrieved.",
        ),
        _data_prop(TRO.startDate, "start date", "The date on which a role begins."),
        _data_prop(
            TRO.endDate,
            "end date",
            "The date on which a role ends; omitted while the role is ongoing.",
        ),
        _obj_prop(TRO.ownerOf, "owner of", "Links a person to an organization they own."),
        _obj_prop(
            TRO.affiliatedWith,
            "affiliated with",
            "Links a person to an organization they are affiliated with.",
        ),
        _obj_prop(EPO.awardedBy, "awarded by", "The organization awarding the contract."),
        _obj_prop(EPO.awardedTo, "awarded to", "The organization the contract is awarded to."),
        _data_prop(EPO.awardDate, "award date", "The date on which the contract was awarded."),
        _data_prop(GR.amount, "amount", "The monetary amount of the contract."),
        _data_prop(SCHEMA.name, "name", "The primary name of a person or an organization."),
    ]
    constraints: tuple[SchemaConstraint, ...] = (
        Disjointness(frozenset({TRO.Commitment, GIST.Organization, TRO.Evidence, SCHEMA.Person})),
        RequiredProperty(SCHEMA.Person, SCHEMA.name),
        RequiredProperty(TRO.Evidence, TRO.evidenceURL),
        RequiredProperty(TRO.Role, TRO.roleOf),
        RequiredProperty(TRO.Role, TRO.roleIn),
        RequiredProperty(TRO.Role, TRO.startDate),
        RequiredProperty(TRO.Role, TRO.hasEvidence),
        PropertyRange(TRO.roleOf, SCHEMA.Person, "class"),
        PropertyRange(TRO.roleIn, GIST.Organization, "class"),
        PropertyRange(TRO.hasEvidence, TRO.Evidence, "class"),
        PropertyRange(TRO.evidenceURL, XSD.anyURI, "datatype"),
        PropertyRange(TRO.startDate, XSD.date, "datatype"),
        PropertyRange(TRO.endDate, XSD.date, "datatype"),
        PropertyRange(TRO.ownerOf, GIST.Organization, "class"),
        PropertyRange(TRO.affiliatedWith, GIST.Organization, "class"),
        PropertyRange(EPO.awardedBy, GIST.Organization, "class"),
        PropertyRange(EPO.awardedTo, GIST.Organization, "class"),
        PropertyRange(EPO.awardDate, XSD.date, "datatype"),
        PropertyRange(GR.amount, XSD.decimal, "datatype"),
        PropertyRange(SCHEMA.name, XSD.string, "datatype"),
    )
    return Vocabulary(terms={t.iri: t for t in terms}, constraints=constraints)


_KIND_CLASS = {
    TermKind.CLASS: OWL.Class,
    TermKind.OBJECT_PROPERTY: OWL.ObjectProperty,
    TermKind.DATA_PROPERTY: OWL.DatatypeProperty,
    TermKind.ANNOTATION_PROPERTY: OWL.AnnotationProperty,
}


def vocabulary_graph(vocab: Vocabulary) -> Graph:
    """The vocabulary as an ontology graph, header included."""
    g = Graph(default_prefixes())
    g.insert(Triple(ONTOLOGY_IRI, RDF_TYPE, OWL.Ontology))
    g.insert(Triple(ONTOLOGY_IRI, OWL.versionInfo, Literal(ONTOLOGY_VERSION)))
    g.insert(Triple(ONTOLOGY_IRI, VANN.preferredNamespacePrefix, Literal("tro")))
    g.insert(Triple(ONTOLOGY_IRI, DC.contributor, Literal("TRO maintainers")))
    g.insert(Triple(ONTOLOGY_IRI, DCTERMS.created, Literal("2022-11-15", XSD_DATE)))
    g.insert(Triple(ONTOLOGY_IRI, DCTERMS.modified, Literal("2024-05-30", XSD_DATE)))
    g.insert(Triple(ONTOLOGY_IRI, DC.date, Literal("2024-05-30", XSD_DATE)))

    for term in vocab.terms.values():
        g.insert(Triple(term.iri, RDF_TYPE, _KIND_CLASS[term.kind]))
        g.insert(Triple(term.iri, RDFS.label, Literal(term.label)))
        g.insert(Triple(term.iri, RDFS.comment, Literal(term.definition)))

    for constraint in vocab.constraints:
        if isinstance(constraint, SubClassOf):
            g.insert(Triple(constraint.sub, RDFS.subClassOf, constraint.sup))
        elif isinstance(constraint, Disjointness):
            for a, b in combinations(sorted(constraint.classes), 2):
                g.insert(Triple(a, OWL.disjointWith, b))
    return g
