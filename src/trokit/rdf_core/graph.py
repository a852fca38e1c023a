"""An in-memory triple store with SPO and POS indexes.

A pattern with a bound subject is answered from ``_spo``, one with a
bound predicate from ``_pos``. Object-bound patterns have no index of
their own: ``(s, ?, o)`` walks the predicates of ``_spo[s]`` and
``(?, ?, o)`` probes ``_pos[p][o]`` once per distinct predicate; neither
scans the triple set. Terms sort as strings, by their N-Triples text, and
results are sorted by subject, predicate, object, so their order is
deterministic; ``subjects``, ``objects`` and ``value`` read one index column.

trokit's own modules (coi, validate, turtle, ntriples) read the indexes
directly: ``_spo[s][p]`` and ``_pos[p][o]`` are unsorted, non-empty
sets, so ``p in _spo[s]`` means s has a p value.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .model import BlankNode, Iri, Literal, Term, Triple


class Graph:
    """A set of triples plus a prefix map used only for serialization."""

    def __init__(self, prefixes: dict[str, Iri] | None = None) -> None:
        self._spo: dict[Iri | BlankNode, dict[Iri, set[Term]]] = {}
        self._pos: dict[Iri, dict[Term, set[Iri | BlankNode]]] = {}
        self._size = 0
        self.prefixes: dict[str, Iri] = dict(prefixes) if prefixes else {}

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        objs = self._spo.get(triple.subject, {}).get(triple.predicate)
        return objs is not None and triple.object in objs

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples(), key=Triple.sort_key))

    def bind(self, prefix: str, namespace: Iri) -> None:
        self.prefixes[prefix] = namespace

    def insert(self, triple: Triple) -> bool:
        """Add a triple; return False if it was already present."""
        return self._add(triple.subject, triple.predicate, triple.object)

    def _add(self, s: Iri | BlankNode, p: Iri, o: Term) -> bool:
        """The one insert body (insert's and the Turtle parser's); (s, p, o) must form a valid Triple."""
        objs = self._spo.setdefault(s, {}).setdefault(p, set())
        if o in objs:
            return False
        objs.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._size += 1
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove a triple; return False if it was not present."""
        if triple not in self:
            return False
        s, p, o = triple.subject, triple.predicate, triple.object
        self._discard(self._spo, s, p, o)
        self._discard(self._pos, p, o, s)
        self._size -= 1
        return True

    @staticmethod
    def _discard(index: dict, a, b, c) -> None:
        inner = index[a]
        leaf = inner[b]
        leaf.discard(c)
        if not leaf:
            del inner[b]
            if not inner:
                del index[a]

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return how many were new."""
        return sum(self.insert(t) for t in triples)

    def copy(self) -> "Graph":
        out = Graph(self.prefixes)
        out._spo, out._pos = (
            {a: {b: set(cs) for b, cs in inner.items()} for a, inner in index.items()}
            for index in (self._spo, self._pos)
        )
        out._size = self._size
        return out

    def triples(self) -> set[Triple]:
        """A fresh set of all triples (mutating it does not touch the graph)."""
        return {
            Triple(s, p, o)
            for s, po in self._spo.items()
            for p, objs in po.items()
            for o in objs
        }

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
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            return [t] if t in self else []
        if s is not None and p is not None:
            found = [Triple(s, p, obj) for obj in self._spo.get(s, {}).get(p, ())]
        elif s is not None and o is not None:
            found = [Triple(s, pred, o) for pred, objs in self._spo.get(s, {}).items() if o in objs]
        elif p is not None and o is not None:
            found = [Triple(subj, p, o) for subj in self._pos.get(p, {}).get(o, ())]
        elif s is not None:
            found = [
                Triple(s, pred, obj)
                for pred, objs in self._spo.get(s, {}).items()
                for obj in objs
            ]
        elif p is not None:
            found = [
                Triple(subj, p, obj)
                for obj, subjs in self._pos.get(p, {}).items()
                for subj in subjs
            ]
        elif o is not None:
            found = [
                Triple(subj, pred, o)
                for pred, by_object in self._pos.items()
                for subj in by_object.get(o, ())
            ]
        else:
            found = list(self.triples())
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


def _column(index: dict, a: Term | None, b: Term | None) -> list:
    """The distinct members of index[a][b], sorted; None is a wildcard."""
    inners = (index.get(a, {}),) if a is not None else index.values()
    if b is not None:
        found = {x for inner in inners for x in inner.get(b, ())}
    else:
        found = {x for inner in inners for leaf in inner.values() for x in leaf}
    return sorted(found)


__all__ = ["Graph", "BlankNode", "Iri", "Literal", "Term", "Triple"]
