"""Canonical N-Triples output.

One line per triple, sorted by UTF-8 byte order, so two graphs are
equal exactly when their canonical forms are byte-identical. Blank
nodes have no stable canonical name and are rejected.
"""

from __future__ import annotations

import itertools

from .graph import Graph
from .model import BlankNode


def canonical_ntriples(graph: Graph) -> str:
    """The graph as sorted N-Triples; '' for an empty graph.

    Raises ValueError if the graph contains a blank node.
    """
    pos_objects = (o for by_object in graph._pos.values() for o in by_object)
    if any(isinstance(term, BlankNode) for term in itertools.chain(graph._spo, pos_objects)):
        raise ValueError("graph contains blank nodes, which have no canonical N-Triples form")
    # code-point order is UTF-8 byte order, as terms hold no surrogates
    lines = sorted(
        subject + " " + predicate + " " + obj + " .\n"
        for subject, po in graph._spo.items()
        for predicate, objects in po.items()
        for obj in objects
    )
    return "".join(lines)
