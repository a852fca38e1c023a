"""Canonical N-Triples output, streamed one subject at a time.

One line per triple, sorted by UTF-8 byte order, so two graphs are
equal exactly when their canonical forms are byte-identical. Blank
nodes have no stable canonical name and are rejected. Each subject's
lines are sorted alone, never all lines at once: a line puts a space
after each term, and where one term's text is a prefix of another's
(``"a"`` and ``"a"@en``, ``_:b1`` and ``_:b10``) the longer goes on with
a character above that space, so the sorted subjects' sorted blocks are
the sorted lines.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .graph import Graph
from .model import BlankNode


def _ntriples_chunks(graph: Graph) -> Iterator[str]:
    """The canonical form, one chunk per subject; ValueError before the first chunk on a blank node."""
    spo = graph._spo
    pos_objects = (o for by_object in graph._pos.values() for o in by_object)
    if any(isinstance(term, BlankNode) for term in itertools.chain(spo, pos_objects)):
        raise ValueError("graph contains blank nodes, which have no canonical N-Triples form")
    for subject in sorted(spo):  # code-point order is UTF-8 byte order, as terms hold no surrogates
        head = subject + " "  # concatenation: an f-string formats a str subclass slowly
        yield "".join(sorted(head + p + " " + o + " .\n" for p, objs in spo[subject].items() for o in objs))


def canonical_ntriples(graph: Graph) -> str:
    """The graph as sorted N-Triples, '' for an empty graph; ValueError if it holds a blank node."""
    return "".join(_ntriples_chunks(graph))
