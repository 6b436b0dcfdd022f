"""Indexed in-memory triple store with a lightweight schema.

Stores (subject, predicate, object) assertions grounded in a declared
schema of classes, subclass edges, relations, and DSL aliases.  Pattern
matching runs off per-position indexes, entity equivalence is handled by
``sameAs`` merging with canonical-representative rewriting, and a
(predicate, neighbor) Jaccard overlap provides a graph-native similarity
baseline.

Concurrency contract: many concurrent readers OR one writer.  Use
:meth:`Graph.snapshot` to hand a read-only copy to another thread while
the original keeps mutating.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from ._atomic import atomic_write
from .errors import (
    GraphFormatError,
    InvalidTokenError,
    SchemaError,
    UnknownClassError,
    UnknownRelationError,
    VkgError,
)

#: Relations every graph understands without a schema declaration.
RESERVED_RELATIONS = frozenset({"type", "subClassOf", "sameAs", "hasVector"})

_WHITESPACE = re.compile(r"\s+")


def normalize(token: str) -> str:
    """Normalize an entity or class token: lowercase, whitespace runs to '_'.

    Idempotent; raises InvalidTokenError (a ValueError) on empty input.
    """
    norm = _WHITESPACE.sub("_", token.strip().lower())
    if not norm:
        raise InvalidTokenError("empty token")
    return norm


_BAD_CHARS = frozenset('<>"')


def _node(raw: str) -> str:
    """An entity or class token as stored: normalized, with no reserved character."""
    token = normalize(raw)
    if _BAD_CHARS & set(token):
        raise InvalidTokenError(f"token {token!r} contains a reserved character")
    return token


class _Nodes(dict):
    """Raw token -> :func:`_node` of it; each distinct raw token is checked once.

    :meth:`Graph.parse` keeps one for the whole text, so equal tokens also
    share one string.
    """

    def __missing__(self, raw: str) -> str:
        token = self[raw] = _node(raw)
        return token


class Literal(NamedTuple):
    """Typed leaf term (version numbers, linked vocabulary tokens, ...).

    Literals are never entities: they carry no type, cannot be merged by
    sameAs, and cannot be linked to vectors.  A one-field tuple, so a
    ``Literal`` never equals the entity string with the same text.
    """

    value: str


Term = Union[str, Literal]


class Triple(NamedTuple):
    """An immutable (subject, predicate, object) tuple; equals the plain 3-tuple."""

    subject: str
    predicate: str
    object: Term

    def sort_key(self) -> tuple:
        obj = self.object
        if isinstance(obj, Literal):
            return (self.subject, self.predicate, 1, obj.value)
        return (self.subject, self.predicate, 0, obj)


class Schema:
    """Class hierarchy, relation declarations, and DSL keyword aliases.

    Class names are normalized like entity tokens; relation ids are kept
    verbatim.  Subclass edges must stay acyclic.
    """

    def __init__(self) -> None:
        self.classes: set[str] = set()
        self.subclass_edges: set[tuple[str, str]] = set()
        self.relations: dict[str, tuple[str | None, str | None]] = {}
        self.aliases: dict[str, str] = {}

    def declare_class(self, name: str) -> None:
        self.classes.add(normalize(name))

    def declare_subclass(self, child: str, parent: str) -> None:
        child, parent = normalize(child), normalize(parent)
        for c in (child, parent):
            if c not in self.classes:
                raise SchemaError(f"subclass edge references undeclared class '{c}'")
        if parent in self.subclasses(child):
            raise SchemaError(f"subclass edge {child} -> {parent} creates a cycle")
        self.subclass_edges.add((child, parent))

    def declare_relation(self, name: str, domain: str | None = None,
                         range_: str | None = None) -> None:
        if not name or _WHITESPACE.search(name):
            raise SchemaError(f"invalid relation id {name!r}")
        if (domain is None) != (range_ is None):
            raise SchemaError(f"relation '{name}' needs both a domain and a range, or neither")
        for c in (domain, range_):
            if c is not None and normalize(c) not in self.classes:
                raise SchemaError(f"relation '{name}' references undeclared class '{c}'")
        self.relations[name] = (
            normalize(domain) if domain else None,
            normalize(range_) if range_ else None,
        )

    def declare_alias(self, keyword: str, relation: str) -> None:
        if relation not in self.relations:
            raise SchemaError(f"alias '{keyword}' targets undeclared relation '{relation}'")
        self.aliases[keyword.lower()] = relation

    def has_class(self, name: str) -> bool:
        return normalize(name) in self.classes

    def resolve_alias(self, keyword: str) -> str:
        """Map a DSL keyword to its relation id (falls back to a literal relation name)."""
        key = keyword.lower()
        if key in self.aliases:
            return self.aliases[key]
        if keyword in self.relations or keyword in RESERVED_RELATIONS:
            return keyword
        raise UnknownRelationError(f"no relation or alias named '{keyword}'")

    def subclasses(self, name: str, extra_edges: Iterable[tuple[str, str]] = ()) -> set[str]:
        """The class plus all transitive descendants."""
        name = normalize(name)
        if name not in self.classes:
            raise UnknownClassError(f"unknown class '{name}'")
        children: dict[str, set[str]] = {}
        for child, parent in list(self.subclass_edges) + list(extra_edges):
            children.setdefault(parent, set()).add(child)
        seen = {name}
        stack = [name]
        while stack:
            for child in children.get(stack.pop(), ()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    @classmethod
    def parse(cls, text: str) -> "Schema":
        """Parse the declarative schema format.

        Four ``[section]`` blocks: classes (one name per line), subclass
        (``child parent``), relations (``name [domain range]``), aliases
        (``keyword relation``).  '#' starts a comment.
        """
        schema = cls()
        section = None
        pending_subclass: list[tuple[str, str, int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in {"classes", "subclass", "relations", "aliases"}:
                    raise GraphFormatError(f"unknown schema section '{section}'", lineno)
                continue
            fields = line.split()
            try:
                if section == "classes":
                    if len(fields) != 1:
                        raise GraphFormatError("expected one class name", lineno)
                    schema.declare_class(fields[0])
                elif section == "subclass":
                    if len(fields) != 2:
                        raise GraphFormatError("expected 'child parent'", lineno)
                    pending_subclass.append((fields[0], fields[1], lineno))
                elif section == "relations":
                    if len(fields) == 1:
                        schema.declare_relation(fields[0])
                    elif len(fields) == 3:
                        schema.declare_relation(fields[0], fields[1], fields[2])
                    else:
                        raise GraphFormatError("expected 'name' or 'name domain range'", lineno)
                elif section == "aliases":
                    if len(fields) != 2:
                        raise GraphFormatError("expected 'keyword relation'", lineno)
                    schema.declare_alias(fields[0], fields[1])
                else:
                    raise GraphFormatError("declaration before any [section] header", lineno)
            except SchemaError as exc:
                raise GraphFormatError(str(exc), lineno) from exc
        for child, parent, lineno in pending_subclass:
            try:
                schema.declare_subclass(child, parent)
            except SchemaError as exc:
                raise GraphFormatError(str(exc), lineno) from exc
        return schema

    @classmethod
    def load(cls, path) -> "Schema":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def to_text(self) -> str:
        """The :meth:`parse` format, every section present and sorted."""
        relations = [f"{name} {domain} {range_}" if domain else name
                     for name, (domain, range_) in sorted(self.relations.items())]
        sections = [
            ("classes", sorted(self.classes)),
            ("subclass", [f"{c} {p}" for c, p in sorted(self.subclass_edges)]),
            ("relations", relations),
            ("aliases", [f"{k} {v}" for k, v in sorted(self.aliases.items())]),
        ]
        return "\n\n".join("\n".join([f"[{name}]", *lines])
                         for name, lines in sections) + "\n"


class Graph:
    """Triples kept in three indexes, each holding every triple once.

    ``_by_s`` maps a canonical subject to its predicates and each of those
    to its triples; ``_by_p`` maps a predicate to its triples and is the
    triple set itself; ``_by_o`` maps a canonical object (or a literal) to
    its triples.  Entity positions are rewritten to the canonical
    (lexicographically smallest) member of their sameAs equivalence class
    at query time; the raw asserted triples are what save/load round-trips.
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema if schema is not None else Schema()
        self._by_s: dict[str, dict[str, set[Triple]]] = {}
        self._by_p: dict[str, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}
        self._same_root: dict[str, str] = {}          # merged entity -> its root
        self._same_members: dict[str, list[str]] = {}  # root -> entities merged into it
        # raw node -> number of stored triples that make it an entity (see entities())
        self._refs: dict[str, int] = {}
        # raw nodes written since link_all last ran on this graph; None until it has
        self._touched: set[str] | None = None
        # _by_o key -> type triples ever added to or removed from it (see class_stamp)
        self._type_writes: dict[Term, int] = {}
        # canonical -> len(_pairs(c)), filled by reads; a write drops each entry it may change
        self._pair_counts: dict[str, int] = {}

    def __len__(self) -> int:
        return sum(map(len, self._by_p.values()))

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(chain.from_iterable(self._by_p.values()), key=Triple.sort_key))

    def __contains__(self, t: Triple) -> bool:
        return t in self._by_p.get(t.predicate, ())

    # --- sameAs equivalence ---------------------------------------------

    def canonical(self, entity: str) -> str:
        """Lexicographically smallest member of the entity's sameAs class."""
        return self._same_root.get(entity, entity)

    def resolve(self, token: str) -> str:
        """``canonical(normalize(token))``; a stored entity node skips normalize."""
        return self.canonical(token if token in self._refs else normalize(token))

    def merged(self) -> dict[str, str]:
        """Every entity sameAs-merged into another -> its canonical representative."""
        return dict(self._same_root)

    def _union(self, a: str, b: str) -> None:
        ra, rb = self.canonical(a), self.canonical(b)
        if ra == rb:
            return
        winner, loser = (ra, rb) if ra < rb else (rb, ra)
        # renaming the loser renames a pair of each of its neighbours; the
        # sameAs _insert calling this has dropped the winner's and loser's counts
        counts = self._pair_counts
        if counts:
            root = self._same_root
            for bucket in self._by_s.get(loser, {}).values():
                for _, _, o in bucket:
                    counts.pop(root.get(o, o), None)
            for s, _, _ in self._by_o.get(loser, ()):
                counts.pop(root.get(s, s), None)
        # every member of the loser's class points straight at the winner,
        # so reads never need to walk or compress a path
        moved = self._same_members.pop(loser, []) + [loser]
        for entity in moved:
            self._same_root[entity] = winner
        self._same_members.setdefault(winner, []).extend(moved)
        # fold the loser's index buckets into the winner's
        if loser in self._by_s:
            into = self._by_s.setdefault(winner, {})
            for p, bucket in self._by_s.pop(loser).items():
                into.setdefault(p, set()).update(bucket)
        if loser in self._by_o:
            self._by_o.setdefault(winner, set()).update(self._by_o.pop(loser))

    # --- mutation ---------------------------------------------------------

    def assert_triple(self, subject: str, predicate: str, obj: Term) -> Triple:
        """Validate, normalize, index, and store one triple (idempotent).

        Entity tokens and class names are normalized; asserting a sameAs
        triple also merges the two equivalence classes, and a subClassOf
        triple extends the subclass hierarchy seen by instances_of.
        """
        t = self._check(subject, predicate, obj)
        self._insert(t)
        return t

    def _insert(self, t: Triple) -> None:
        """Index a checked triple; a triple already stored is left as it is."""
        s, p, o = t
        triples = self._by_p.setdefault(p, set())
        size = len(triples)   # one hash for both the membership test and the add
        triples.add(t)
        if len(triples) == size:
            return
        entity_object = isinstance(o, str)
        if self._touched is not None:
            self._touched.update((s, o) if entity_object else (s,))
        root = self._same_root
        self._by_s.setdefault(root.get(s, s), {}).setdefault(p, set()).add(t)
        key = root.get(o, o) if entity_object else o
        self._by_o.setdefault(key, set()).add(t)
        if self._pair_counts:
            self._pair_counts.pop(root.get(s, s), None)
            self._pair_counts.pop(key, None)
        if p == "type":
            self._type_writes[key] = self._type_writes.get(key, 0) + 1
        if p not in ("subClassOf", "hasVector"):
            refs = self._refs
            refs[s] = refs.get(s, 0) + 1
            if entity_object and p != "type":
                refs[o] = refs.get(o, 0) + 1
        if p == "sameAs" and entity_object:
            self._union(s, o)

    def retract_triple(self, subject: str, predicate: str, obj: Term) -> bool:
        """Remove one exact triple; returns whether it was present.

        sameAs merges are not undone (equivalence closure is monotone).
        """
        t = self._check(subject, predicate, obj)
        if t not in self:
            return False
        s, p, o = t.subject, t.predicate, t.object
        entity_object = isinstance(o, str)
        if self._touched is not None:
            self._touched.update((s, o) if entity_object else (s,))
        cs = self.canonical(s)
        co = self.canonical(o) if entity_object else o
        predicates = self._by_s[cs]
        for index, key in ((predicates, p), (self._by_p, p), (self._by_o, co)):
            bucket = index[key]
            bucket.discard(t)
            if not bucket:
                del index[key]
        if p == "type":
            self._type_writes[co] = self._type_writes.get(co, 0) + 1
        if self._pair_counts:
            self._pair_counts.pop(cs, None)
            self._pair_counts.pop(co, None)
        if not predicates:
            del self._by_s[cs]
        if p not in ("subClassOf", "hasVector"):
            refs = self._refs
            count = refs[s]
            if count == 1:
                del refs[s]
            else:
                refs[s] = count - 1
            if entity_object and p != "type":
                count = refs[o]
                if count == 1:
                    del refs[o]
                else:
                    refs[o] = count - 1
        return True

    def merge_same_as(self, a: str, b: str) -> None:
        """Assert ``a sameAs b``, neither a declared class; then the two are interchangeable."""
        self.assert_triple(a, "sameAs", b)

    def make_triple(self, subject: str, predicate: str, obj: Term) -> Triple:
        """Validate and normalize a triple without storing it (overlay use)."""
        return self._check(subject, predicate, obj)

    def _check(self, subject: str, predicate: str, obj: Term,
               node: Callable[[str], str] = _node) -> Triple:
        if predicate not in RESERVED_RELATIONS and predicate not in self.schema.relations:
            raise UnknownRelationError(f"relation '{predicate}' not declared in schema")
        subject = node(subject)
        if isinstance(obj, Literal):
            if "".join(obj.value.splitlines()) != obj.value:
                raise GraphFormatError(
                    f"literal {obj.value!r} contains a line break")
            if predicate in ("type", "subClassOf", "sameAs"):
                error = SchemaError if predicate == "sameAs" else UnknownClassError
                raise error(f"{predicate} object {obj.value!r} is a literal")
            return Triple(subject, predicate, obj)
        obj = node(obj)
        if predicate == "type" and obj not in self.schema.classes:
            raise UnknownClassError(f"type object '{obj}' is not a declared class")
        if predicate == "subClassOf":
            for cls in (subject, obj):
                if cls not in self.schema.classes:
                    raise UnknownClassError(f"subClassOf operand '{cls}' is not a declared class")
        if predicate == "sameAs":
            for cls in (subject, obj):
                if cls in self.schema.classes:
                    raise SchemaError(f"sameAs operand '{cls}' is a declared class")
        return Triple(subject, predicate, obj)

    # --- queries ------------------------------------------------------------

    def match_pattern(self, subject: str | None = None, predicate: str | None = None,
                      obj: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions, canonicalized and sorted.

        None is a wildcard.  Entity positions in both the pattern and the
        results are rewritten to sameAs-canonical representatives, so two
        merged entities are fully interchangeable.  Unknown ids simply
        match nothing.
        """
        s = self.resolve(subject) if subject is not None else None
        o: Term | None = obj
        if isinstance(obj, str):
            o = self.resolve(obj)
        candidates = self._candidates(s, predicate, o)
        out = set()
        for t in candidates:
            ct = self._canonical_triple(t)
            if s is not None and ct.subject != s:
                continue
            if predicate is not None and ct.predicate != predicate:
                continue
            if o is not None and ct.object != o:
                continue
            out.add(ct)
        return sorted(out, key=Triple.sort_key)

    def objects(self, subject: str, predicate: str) -> set[str]:
        """Canonical entity objects of the subject's triples with the predicate.

        ``match_pattern(subject, predicate, None)``'s entity objects, read
        straight from the subject index; literal objects are skipped.
        """
        bucket = self._by_s.get(self.resolve(subject), {}).get(predicate, ())
        root = self._same_root
        return {root.get(o, o) for _, _, o in bucket if isinstance(o, str)}

    def _candidates(self, s, p, o) -> Iterable[Triple]:
        pools = []
        if s is not None:
            predicates = self._by_s.get(s, {})
            pools.append(predicates.get(p, ()) if p is not None
                         else list(chain.from_iterable(predicates.values())))
        elif p is not None:
            pools.append(self._by_p.get(p, ()))
        if o is not None:
            pools.append(self._by_o.get(o, ()))
        if not pools:
            return chain.from_iterable(self._by_p.values())
        return min(pools, key=len)

    def _canonical_triple(self, t: Triple) -> Triple:
        obj = t.object if isinstance(t.object, Literal) else self.canonical(t.object)
        return Triple(self.canonical(t.subject), t.predicate, obj)

    def _closure(self, class_name: str) -> set[str]:
        """The class and its schema and asserted subClassOf descendants."""
        asserted = [
            (t.subject, t.object) for t in self._by_p.get("subClassOf", ())
            if isinstance(t.object, str)
        ]
        return self.schema.subclasses(class_name, extra_edges=asserted)

    def instances_of(self, class_name: str) -> set[str]:
        """Canonical entities typed as the class or a subclass; see :meth:`class_stamp`."""
        out: set[str] = set()
        for cls in self._closure(class_name):
            for t in self._by_o.get(cls, ()):
                if t.predicate == "type":
                    out.add(self.canonical(t.subject))
        return out

    def class_stamp(self, class_name: str) -> tuple:
        """Changes whenever ``instances_of(class_name)`` may: the count of merged
        entities (each union adds one) and the type writes per bucket of the closure."""
        writes = self._type_writes
        return len(self._same_root), frozenset(
            (cls, writes.get(cls, 0)) for cls in self._closure(class_name))

    def triples_with(self, predicate: str) -> list[Triple]:
        """The stored triples with the predicate, as asserted: not canonicalized, unsorted."""
        return list(self._by_p.get(predicate, ()))

    def entities(self) -> set[str]:
        """All raw (un-merged) entity nodes.

        Class names and literals are not entities; subjects/objects of
        subClassOf triples and objects of type triples are classes.  A
        hasVector link describes an entity but does not make one.  Writes
        keep a reference count per node under this rule, so this is a copy
        of its keys, not a scan of the triples.
        """
        return self._refs.keys() - self.schema.classes

    def neighbor_pairs(self, entity: str) -> set[tuple[str, str]]:
        """Canonicalized (predicate, neighbor) pairs in both directions.

        sameAs and hasVector edges and literal-valued objects are excluded,
        except that an entity-valued ``<n> <hasVector> <e>`` gives ``e`` the
        pair (hasVector, n); this is the edge set graph_similarity compares.
        """
        return self._pairs(self.resolve(entity))

    def _pairs(self, c: str) -> set[tuple[str, str]]:
        """neighbor_pairs of a canonical entity."""
        pairs: set[tuple[str, str]] = set()
        for p, bucket in self._by_s.get(c, {}).items():
            if p not in ("sameAs", "hasVector"):
                for t in bucket:
                    if not isinstance(t.object, Literal):
                        pairs.add((p, self.canonical(t.object)))
        for t in self._by_o.get(c, ()):
            if t.predicate != "sameAs":
                pairs.add((t.predicate, self.canonical(t.subject)))
        return pairs

    def _pair_count(self, c: str) -> int:
        """``len(self._pairs(c))`` of a canonical entity, kept until a write drops it."""
        n = self._pair_counts.get(c)
        if n is None:
            n = self._pair_counts[c] = len(self._pairs(c))
        return n

    def graph_similarity(self, a: str, b: str) -> float:
        """Jaccard overlap of the two entities' (predicate, neighbor) sets.

        Symmetric; 1.0 for the same (or sameAs-merged) entity, 0.0 when
        either side is isolated.
        """
        ca, cb = self.resolve(a), self.resolve(b)
        if ca == cb:
            return 1.0
        pa, pb = self._pairs(ca), self._pairs(cb)
        if not pa or not pb:
            return 0.0
        return len(pa & pb) / len(pa | pb)

    def _overlaps(self, c: str) -> tuple[set[tuple[str, str]], Counter[str]]:
        """The canonical entity's pairs, and per other node how many it shares.

        A node holds (p, n) through ``node p n`` in the by-object index of n
        or ``n p node`` in the by-subject index of n under p; it counts once
        per pair, however many triples or merged neighbours give it the pair.
        """
        pq = self._pairs(c)
        root = self._same_root
        counts: Counter[str] = Counter()
        for p, n in pq:
            holders = {root.get(o, o) for _, _, o in self._by_s.get(n, {}).get(p, ())
                       if isinstance(o, str)}
            if p != "hasVector":   # no pair of _pairs is a sameAs pair
                holders.update(root.get(s, s) for s, q, _ in self._by_o.get(n, ()) if q == p)
            counts.update(holders)
        del counts[c]
        return pq, counts

    def _entity_members(self, c: str) -> list[str]:
        """The raw nodes of :meth:`entities` whose canonical is ``c``: the
        members of its sameAs class, itself included, that are entities."""
        refs, classes = self._refs, self.schema.classes
        merged = self._same_members.get(c)
        if merged is None:
            return [c] if c in refs and c not in classes else []
        return [e for e in (c, *merged) if e in refs and e not in classes]

    def similarities(self, entity: str) -> dict[str, float]:
        """graph_similarity to the entity of every node it shares a pair with.

        Keyed by canonical representative, the entity's own at 1.0.  Every
        node missing from the result scores 0.0: it shares no (predicate,
        neighbor) pair with the entity.  Only the nodes that :meth:`_overlaps`
        counts are scored, as ``c / (len(pq) + len(po) - c)`` for an overlap
        of c pairs: the integers of ``len(pq & po) / len(pq | po)``.
        """
        c = self.resolve(entity)
        pq, counts = self._overlaps(c)
        scores = {c: 1.0}
        for other, n in counts.items():
            scores[other] = n / (len(pq) + len(self._pairs(other)) - n)
        return scores

    # --- persistence ----------------------------------------------------

    def snapshot(self) -> "Graph":
        """Independent copy safe to hand to a reader thread.

        The indexes, reference counts and sameAs classes are copied as they
        are, so a merge whose sameAs triple was retracted survives.  The copy
        records no touched nodes and no pair counts: its first link_all reads
        every link, and its reads count pairs afresh.
        """
        g = Graph(self.schema)
        g._by_s = {s: {p: set(b) for p, b in preds.items()}
                   for s, preds in self._by_s.items()}
        g._by_p = {p: set(b) for p, b in self._by_p.items()}
        g._by_o = {o: set(b) for o, b in self._by_o.items()}
        g._refs = dict(self._refs)
        g._same_root = dict(self._same_root)
        g._same_members = {r: list(m) for r, m in self._same_members.items()}
        g._type_writes = dict(self._type_writes)
        return g

    def save(self, path) -> None:
        """Write :meth:`to_text` to ``path``, replacing the previous file atomically."""
        with atomic_write(path) as fh:
            fh.write(self.to_text())

    def to_text(self) -> str:
        """Canonical line format: ``<subject> <predicate> <object> .`` sorted."""
        lines = []
        for t in self:
            if isinstance(t.object, Literal):
                escaped = t.object.value.replace("\\", "\\\\").replace('"', '\\"')
                obj = f'"{escaped}"'
            else:
                obj = f"<{t.object}>"
            lines.append(f"<{t.subject}> <{t.predicate}> {obj} .\n")
        return "".join(lines)

    @classmethod
    def load(cls, path, schema: Schema) -> "Graph":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read(), schema)

    @classmethod
    def parse(cls, text: str, schema: Schema) -> "Graph":
        """Build a graph from :meth:`to_text` lines; '#' lines and blank lines are skipped.

        Each triple passes the checks of :meth:`assert_triple`, but every
        distinct raw token is normalized and screened once per parse, and
        equal tokens share one string.
        """
        graph = cls(schema)
        node = _Nodes().__getitem__
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = _TRIPLE_LINE.match(line)
            if m is None:
                raise GraphFormatError(f"unparseable triple {line!r}", lineno)
            subject, predicate, entity_obj, literal_obj = m.groups()
            obj: Term
            if entity_obj is not None:
                obj = entity_obj
            else:
                obj = Literal(literal_obj.replace('\\"', '"').replace("\\\\", "\\"))
            try:
                t = graph._check(subject, predicate, obj, node)
            except VkgError as exc:
                raise GraphFormatError(str(exc), lineno) from exc
            graph._insert(t)
        return graph


_TRIPLE_LINE = re.compile(
    r'^<([^<>\s]+)>\s+<([^<>\s]+)>\s+(?:<([^<>\s]+)>|"((?:[^"\\]|\\.)*)")\s+\.$'
)
