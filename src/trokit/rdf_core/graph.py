"""An in-memory triple store with SPO and POS indexes; triples are only ever added.

``match`` makes one walk: a pattern with a bound subject walks ``_spo[s]``,
any other walks ``_pos``, and at each level a bound term is probed, not
scanned. So ``(s, p, o)`` is one probe, ``(s, ?, o)`` probes the predicates
of ``_spo[s]`` and ``(?, ?, o)`` probes ``_pos[p][o]`` once per distinct
predicate. Terms sort as strings, by their N-Triples text, and results are
sorted by subject, predicate, object, so their order is deterministic;
``subjects``, ``objects`` and ``value`` read one index column.

coi and validate take every subject of a predicate from ``subjects``; else
trokit's modules read the indexes directly: a leaf, ``_spo[s][p]`` or
``_pos[p][o]``, is unsorted and never empty, so ``p in _spo[s]`` means s has
a p value. Most leaves hold one term, so ``_add`` makes a leaf the 1-tuple
``(term,)``, a fifth the size of a set, and a set once it holds two terms;
readers only iterate, test ``in`` and take ``len``, which both shapes answer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .model import BlankNode, Iri, Literal, Term, Triple


class Graph:
    """A set of triples plus a prefix map used only for serialization."""

    def __init__(self, prefixes: dict[str, Iri] | None = None) -> None:
        self._spo: dict[Iri | BlankNode, dict[Iri, tuple[Term] | set[Term]]] = {}
        self._pos: dict[Iri, dict[Term, tuple[Iri | BlankNode] | set[Iri | BlankNode]]] = {}
        self._size = 0
        self.prefixes: dict[str, Iri] = dict(prefixes) if prefixes else {}

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        objs = self._spo.get(triple.subject, {}).get(triple.predicate)
        return objs is not None and triple.object in objs

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.match())

    def insert(self, triple: Triple) -> bool:
        """Add a triple; return False if it was already present."""
        return self._add(triple.subject, triple.predicate, triple.object)

    def _add(self, s: Iri | BlankNode, p: Iri, o: Term) -> bool:
        """The one insert body (insert's and the Turtle parser's); (s, p, o) must form a valid Triple.

        A new leaf is the 1-tuple of its term; a second distinct term turns it into a set.
        """
        po = self._spo.setdefault(s, {})
        objs = po.get(p, ())
        if o in objs:
            return False
        if type(objs) is set:
            objs.add(o)
        else:
            po[p] = {objs[0], o} if objs else (o,)
        by_object = self._pos.setdefault(p, {})
        subjs = by_object.get(o, ())  # s is not in it: the triple is new
        if type(subjs) is set:
            subjs.add(s)
        else:
            by_object[o] = {subjs[0], s} if subjs else (s,)
        self._size += 1
        return True

    def match(
        self,
        subject: Iri | BlankNode | None = None,
        predicate: Iri | None = None,
        object: Term | None = None,
    ) -> list[Triple]:
        """All triples matching the pattern; None is a wildcard.

        The result is a list sorted by (subject, predicate, object), so
        equal graphs always answer equal patterns identically.
        """
        if subject is not None:
            po = self._spo.get(subject, {})
            found = [Triple(subject, p, o) for p in _keys(po, predicate) for o in _keys(po[p], object)]
        else:
            pos = self._pos
            found = [Triple(s, p, o) for p in _keys(pos, predicate) for o in _keys(pos[p], object) for s in pos[p][o]]
        found.sort(key=Triple.sort_key)
        return found

    def subjects(self, predicate: Iri | None = None, object: Term | None = None) -> list[Iri | BlankNode]:
        """Distinct subjects of triples matching the pattern, sorted."""
        return _column(self._pos, predicate, object)

    def objects(self, subject: Iri | BlankNode | None = None, predicate: Iri | None = None) -> list[Term]:
        """Distinct objects of triples matching the pattern, sorted."""
        return _column(self._spo, subject, predicate)

    def value(self, subject: Iri | BlankNode, predicate: Iri) -> Term | None:
        """The single object of (subject, predicate), or None.

        Returns None both when absent and when ambiguous; callers that
        care about the difference should use objects().
        """
        objs = self._spo.get(subject, {}).get(predicate, ())
        return next(iter(objs)) if len(objs) == 1 else None


def _keys(index, key) -> Iterable:
    """Every key of index for a wildcard (None), else the bound key if index holds it."""
    return index if key is None else (key,) if key in index else ()


def _column(index: dict, a: Term | None, b: Term | None) -> list:
    """The distinct members of index[a][b], sorted; None is a wildcard."""
    inners = (index.get(a, {}),) if a is not None else index.values()
    if b is not None:
        found = {x for inner in inners for x in inner.get(b, ())}
    else:
        found = {x for inner in inners for leaf in inner.values() for x in leaf}
    return sorted(found)


__all__ = ["Graph", "BlankNode", "Iri", "Literal", "Term", "Triple"]
